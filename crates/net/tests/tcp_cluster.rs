//! Integration tests of the TCP runtime: a whole cluster on loopback
//! sockets inside one process. Every byte crosses a real socket — these
//! are the in-process twin of `scripts/e2e_tcp.sh`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use kite::wire::{self, Hello};
use kite::{Op, ProtocolMode};
use kite_common::stats::ProtoCounters;
use kite_common::{ClusterConfig, Key, NodeId, Val};
use kite_net::{Cluster, LinkTable, NodeConfig, NodeRuntime, RemoteSession};

fn cfg() -> ClusterConfig {
    ClusterConfig::small()
        .keys(1 << 10)
        .sessions_per_worker(4)
        .release_timeout_ns(2_000_000)
        .anti_entropy_interval_ns(2_000_000)
        .anti_entropy_chunk(256)
}

/// Wait until `f` is true or the deadline passes.
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

#[test]
fn mixed_workload_over_loopback_tcp() {
    let nodes = Cluster::launch(cfg(), ProtocolMode::Kite).expect("launch").into_nodes();
    let _wd = nodes[0].watchdog(Duration::from_secs(120));
    let addr = |n: usize| nodes[n].addr().to_string();

    // A session on each node: the RC handoff pattern across real sockets.
    let mut producer = RemoteSession::connect(&addr(0), 0).expect("producer");
    let mut consumer = RemoteSession::connect(&addr(1), 0).expect("consumer");
    let mut third = RemoteSession::connect(&addr(2), 0).expect("third session");

    producer.write(Key(1), 0xDA7Au64).unwrap();
    producer.release(Key(0), 0xF1A6u64).unwrap();
    assert!(
        wait_for(Duration::from_secs(30), || consumer.acquire(Key(0)).unwrap().as_u64()
            == 0xF1A6),
        "consumer never acquired the flag"
    );
    // The RC barrier invariant, across processes' worth of sockets.
    assert_eq!(consumer.read(Key(1)).unwrap().as_u64(), 0xDA7A);

    // Consensus across all three nodes.
    const FAAS: u64 = 30;
    for _ in 0..FAAS {
        producer.fetch_add(Key(7), 1).unwrap();
        consumer.fetch_add(Key(7), 1).unwrap();
        third.fetch_add(Key(7), 1).unwrap();
    }
    let total = third.acquire(Key(7)).unwrap().as_u64();
    assert_eq!(total, 3 * FAAS, "FAA increments must not be lost or doubled");

    // A second claim of a taken slot is rejected with a clean error.
    let err = RemoteSession::connect(&addr(0), 0);
    assert!(err.is_err(), "slot 0 on node 0 was already claimed");

    for n in nodes {
        n.shutdown();
    }
}

/// A `Cluster` session is a client connection like any other: its
/// completions leave through the serving loop's pump (`LoopStats::
/// {completions, pumps}`), the path every remote client takes.
#[test]
fn cluster_sessions_are_served_through_the_completion_pump() {
    let cluster = Cluster::launch(cfg(), ProtocolMode::Kite).expect("launch");
    // Slot 0 belongs to worker 0 (`sessions_for` numbering).
    let loop0 = &cluster.nodes()[0].fabric_stats().loops[0];
    let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let (pumps, completions) = (read(&loop0.pumps), read(&loop0.completions));

    let mut s = cluster.session(NodeId(0), 0).expect("session");
    s.write(Key(1), 1u64).unwrap();
    s.release(Key(2), 1u64).unwrap();
    assert_eq!(s.read(Key(1)).unwrap().as_u64(), 1);
    // The pump counts a batch after writing it, so the last op's count may
    // land just after its completion did.
    assert!(
        wait_for(Duration::from_secs(10), || read(&loop0.completions) - completions >= 3),
        "3 ops completed, the loop pumped {}",
        read(&loop0.completions) - completions
    );
    assert!(read(&loop0.pumps) > pumps, "no completion pump ran for the session's ops");
    drop(s);
    cluster.shutdown();
}

/// The scrape endpoint's `dump` view of the node at `addr`.
fn dump(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics endpoint");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream.write_all(b"dump\n").expect("send request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read dump");
    body
}

/// A client that leaves with a pipeline still queued on its session costs
/// only its slot: the session runs the ops out, the serving loop drops
/// their completions (the dump view counts them) instead of queueing them
/// for a connection that is gone, the slot stays claimed, and the node's
/// other sessions keep serving meanwhile.
#[test]
fn a_client_that_leaves_mid_pipeline_costs_only_its_slot() {
    const OPS: u64 = 200;
    let cluster = Cluster::launch(cfg(), ProtocolMode::Kite).expect("launch");
    let _wd = cluster.watchdog(Duration::from_secs(120));
    let metrics = cluster.nodes()[0].metrics_addr().expect("metrics endpoint");

    // Releases block their session one quorum round each, so the pipeline
    // is still running when its client goes.
    let mut leaver = cluster.session(NodeId(0), 0).expect("session");
    for i in 0..OPS {
        leaver.submit(Op::Release { key: Key(100), val: Val::from_u64(i + 1) }).unwrap();
    }
    leaver.flush().unwrap();
    drop(leaver);

    // Two more sessions on the same node hand a value off meanwhile.
    let mut producer = cluster.session(NodeId(0), 1).expect("producer");
    let mut consumer = cluster.session(NodeId(0), 2).expect("consumer");
    producer.write(Key(1), 0xDA7Au64).unwrap();
    producer.release(Key(2), 1u64).unwrap();
    assert_eq!(consumer.acquire(Key(2)).unwrap().as_u64(), 1);
    assert_eq!(consumer.read(Key(1)).unwrap().as_u64(), 0xDA7A);

    // Claim-once: the departed client's slot is not handed out again.
    assert!(cluster.session(NodeId(0), 0).is_err(), "slot 0 was claimed once already");

    // The session runs its queue out; once it is idle, every completion it
    // made has passed the pump.
    let finished = format!("seq={OPS} ");
    let done = |d: &str| {
        let ran_out = |l: &str| l.contains(&finished) && l.contains("idle=true");
        d.lines().any(|l| l.contains("session[0] ") && ran_out(l))
    };
    let mut view = String::new();
    assert!(
        wait_for(Duration::from_secs(60), || {
            view = dump(metrics);
            done(&view)
        }),
        "the departed client's pipeline never ran out:\n{view}"
    );
    let dropped = view
        .split_once("completions dropped for departed clients=")
        .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse::<u64>().ok())
        .expect("the dump counts dropped completions");
    // The loop reads the client's EOF with the pipeline barely started.
    assert!((OPS / 2..=OPS).contains(&dropped), "{dropped} of {OPS} completions dropped:\n{view}");
    assert!(!view.contains("client s0:"), "no connection holds the departed slot:\n{view}");
    drop((producer, consumer));
    cluster.shutdown();
}

#[test]
fn malformed_peer_frames_drop_the_connection_not_the_worker() {
    let nodes = Cluster::launch(cfg(), ProtocolMode::Kite).expect("launch").into_nodes();
    // Only a lower id dials a node, so the "peers" play nodes 0 and 1
    // against node 2 (each replaces that node's real link until it redials).
    let addr = nodes[2].addr();

    // A "peer" that handshakes correctly, then sends garbage: valid length
    // prefix, undecodable body. The node must close this connection and
    // keep serving — never panic a worker.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&wire::encode_hello(Hello::Peer { node: NodeId(0), worker: 0 })).unwrap();
        let garbage = [0xFFu8; 32];
        let mut frame = Vec::new();
        frame.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
        frame.extend_from_slice(&garbage);
        s.write_all(&frame).unwrap();
        // Server should close on us; observe EOF (or reset) rather than a
        // wedged stream. The link is both directions, so the node's own
        // protocol frames may arrive before the close: read past them.
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        if let Err(e) = s.read_to_end(&mut Vec::new()) {
            let reset = e.kind() == std::io::ErrorKind::ConnectionReset;
            assert!(reset, "server kept a connection that sent a garbage frame: {e}");
        }
    }

    // An oversized length prefix on a second connection.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&wire::encode_hello(Hello::Peer { node: NodeId(1), worker: 0 })).unwrap();
        s.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
    }

    // The malformed connections are surfaced on the link table…
    assert!(
        wait_for(Duration::from_secs(10), || nodes[2].describe().contains("decode_errors=1")),
        "decode error must be counted for the watchdog: {}",
        nodes[2].describe()
    );

    // …and the cluster still serves clients end to end.
    let mut s = RemoteSession::connect(&nodes[1].addr().to_string(), 0).expect("connect");
    s.release(Key(3), 99u64).unwrap();
    assert_eq!(s.acquire(Key(3)).unwrap().as_u64(), 99);

    for n in nodes {
        n.shutdown();
    }
}

/// Does the node close `s` within `timeout` (without writing to it)?
fn closed_within(s: &mut TcpStream, timeout: Duration) -> bool {
    s.set_read_timeout(Some(timeout)).unwrap();
    match s.read(&mut [0u8; 1]) {
        Ok(0) => true,
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
        Ok(_) => false,
    }
}

/// The handshake deadline for accepted connections (`HELLO_TIMEOUT`).
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// A connection that sends half a hello and stops holds a slab slot until
/// its deadline, and no longer; meanwhile the node accepts and serves
/// everyone else.
#[test]
fn a_half_hello_is_dropped_at_its_deadline() {
    let cluster = Cluster::launch(cfg(), ProtocolMode::Kite).expect("launch");
    let addr = cluster.nodes()[0].addr();
    let mut half = TcpStream::connect(addr).unwrap();
    let connected = Instant::now();
    half.write_all(&wire::encode_hello(Hello::Client { slot: 1 })[..5]).unwrap();

    let mut s = cluster.session(NodeId(0), 0).expect("a session while a hello is pending");
    s.write(Key(4), 4u64).unwrap();
    assert_eq!(s.read(Key(4)).unwrap().as_u64(), 4);

    let limit = HELLO_TIMEOUT + Duration::from_secs(1);
    let left = limit.saturating_sub(connected.elapsed()).max(Duration::from_millis(1));
    assert!(closed_within(&mut half, left), "a half hello outlived its deadline");
    assert!(
        connected.elapsed() >= HELLO_TIMEOUT - Duration::from_millis(500),
        "a half hello was dropped after {:?}, before its deadline",
        connected.elapsed()
    );
    drop(s);
    cluster.shutdown();
}

/// A garbage hello costs its connection at once, and is no peer's: no link
/// row counts it.
#[test]
fn a_garbage_hello_is_dropped_and_counted_on_no_link() {
    let cluster = Cluster::launch(cfg(), ProtocolMode::Kite).expect("launch");
    let node = &cluster.nodes()[0];
    let mut s = TcpStream::connect(node.addr()).unwrap();
    s.write_all(&[0xA5; wire::HELLO_LEN]).unwrap();
    assert!(closed_within(&mut s, Duration::from_secs(10)), "a garbage hello was kept");
    for peer in [NodeId(1), NodeId(2)] {
        assert_eq!(rows(node.links(), peer, 1, "decode_errors"), 0, "{}", node.links().describe());
    }
    cluster.shutdown();
}

/// One `LinkState::fields` reading summed over every worker's row to `peer`.
fn rows(links: &LinkTable, peer: NodeId, workers: usize, name: &str) -> u64 {
    (0..workers)
        .flat_map(|w| links.link(peer, w).fields())
        .filter_map(|(field, v)| (field == name).then_some(v))
        .sum()
}

/// Injected loss lives on the link rows the fabric already drops on:
/// cutting `0 → 1` makes node 0's rows to node 1 count `dropped_out`
/// while node 0's writes and release still complete (the release on the
/// slow path, against node 2); healing it (`p = 0`) lets frames flow to
/// node 1 again.
#[test]
fn injected_loss_drops_on_the_link_rows_and_heals() {
    const WORKERS: usize = 2;
    let cluster =
        Cluster::launch(cfg().workers_per_node(WORKERS), ProtocolMode::Kite).expect("launch");
    let _wd = cluster.watchdog(Duration::from_secs(120));
    let links = cluster.nodes()[0].links();
    let to_1 = |name| rows(links, NodeId(1), WORKERS, name);
    // Frames sent before a link first connects count as dropped too: start
    // from every link up.
    assert!(
        wait_for(Duration::from_secs(10), || (1..3)
            .all(|d| (0..WORKERS).all(|w| links.link(NodeId(d), w).is_connected()))),
        "links never came up: {}",
        links.describe()
    );
    let mut s = cluster.session(NodeId(0), 0).expect("session");
    s.write(Key(1), 1u64).unwrap();
    s.release(Key(2), 1u64).unwrap();

    let to_2 = rows(links, NodeId(2), WORKERS, "dropped_out");
    let (dropped, slow) = (to_1("dropped_out"), cluster.counters(NodeId(0)).slow_releases.get());
    cluster.set_drop(NodeId(0), NodeId(1), 1.0);
    for i in 0..8u64 {
        s.write(Key(10 + i), i + 1).unwrap();
    }
    s.release(Key(2), 2u64).unwrap();
    assert!(to_1("dropped_out") > dropped, "the cut link must count its losses");
    assert!(
        cluster.counters(NodeId(0)).slow_releases.get() > slow,
        "node 1 never acks, so the release completes on the slow path"
    );
    assert_eq!(rows(links, NodeId(2), WORKERS, "dropped_out"), to_2, "the link to node 2 is whole");

    let frames = to_1("frames_out");
    cluster.set_drop(NodeId(0), NodeId(1), 0.0);
    s.write(Key(3), 3u64).unwrap();
    assert!(
        wait_for(Duration::from_secs(10), || to_1("frames_out") > frames),
        "traffic to node 1 must resume after the heal: {}",
        links.describe()
    );
    let mut r = cluster.session(NodeId(1), 0).expect("session on node 1");
    assert_eq!(r.acquire(Key(2)).unwrap().as_u64(), 2, "node 1 sees the release made during the cut");
    cluster.shutdown();
}

/// A node goes away (shutdown), the cluster keeps serving on its majority,
/// a sentinel is released meanwhile, and the node comes back **on the same
/// port**: peers must re-dial it (reconnect-with-backoff) and the idle-time
/// anti-entropy keepalive must converge its store without any new client
/// activity — the heal-time convergence story of the keepalive knob.
#[test]
fn restarted_node_redials_and_converges_by_keepalive() {
    let cfg = cfg().anti_entropy_keepalive_ns(10_000_000); // 10 ms keepalive
    let nodes = Cluster::launch(cfg.clone(), ProtocolMode::Kite).expect("launch").into_nodes();
    let peers: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();

    // Take node 2 down (drop joins all its threads and closes its port).
    let mut nodes = nodes;
    let down = nodes.remove(2);
    down.shutdown();

    // The survivors still have their majority: write through node 0.
    let mut s = RemoteSession::connect(&peers[0], 0).expect("connect majority");
    s.release(Key(42), 0xBEEFu64).expect("release with one node down");

    // Restart node 2 on the same address.
    let node2 = NodeRuntime::launch(NodeConfig::new(
        cfg,
        ProtocolMode::Kite,
        NodeId(2),
        peers.clone(),
        kite_net::bind_reuseaddr(&peers[2]).expect("rebind the node's port"),
    ))
    .expect("rebind the same port after restart");

    // No further client activity anywhere: convergence must come from the
    // keepalive sweep reaching the rejoined replica. Relaxed reads are
    // local, so the sentinel appearing on node 2 proves repair traffic.
    let mut poll = RemoteSession::connect(&peers[2], 0).expect("session on restarted node");
    assert!(
        wait_for(Duration::from_secs(30), || poll.read(Key(42)).unwrap().as_u64() == 0xBEEF),
        "restarted node never converged; links: {}",
        node2.describe()
    );

    node2.shutdown();
    for n in nodes {
        n.shutdown();
    }
}

/// Node 0 is the lowest id, so it dials every link it has and its peers
/// only accept. Restarted on its port, it redials them all, and each new
/// connection replaces the stale socket a survivor's link held (or whose
/// EOF already put the row in `Backoff`): every survivor row to node 0 is
/// `Connected` again after exactly its second attachment, and traffic flows
/// both ways over the new links.
#[test]
fn restarted_lowest_node_redials_every_survivor() {
    let cfg = cfg();
    let workers = cfg.workers_per_node;
    let nodes = Cluster::launch(cfg.clone(), ProtocolMode::Kite).expect("launch").into_nodes();
    let peers: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
    let rows_to = |n: &NodeRuntime, peer: u8| -> Vec<(bool, u64)> {
        (0..workers)
            .map(|w| n.links().link(NodeId(peer), w))
            .map(|l| (l.is_connected(), l.connects.load(Ordering::Relaxed)))
            .collect()
    };
    let every_row = |nodes: &[NodeRuntime], want: (bool, u64)| {
        nodes.iter().all(|n| {
            let ids = 0..peers.len() as u8;
            ids.filter(|&p| p != n.node().0).all(|p| rows_to(n, p).iter().all(|&r| r == want))
        })
    };
    // A clean launch attaches every link once, on both ends.
    assert!(
        wait_for(Duration::from_secs(10), || every_row(&nodes, (true, 1))),
        "a clean launch must connect every row exactly once: {}",
        nodes.iter().map(NodeRuntime::describe).collect::<String>()
    );

    let mut survivors = nodes;
    survivors.remove(0).shutdown();
    let node0 = NodeRuntime::launch(NodeConfig::new(
        cfg,
        ProtocolMode::Kite,
        NodeId(0),
        peers.clone(),
        kite_net::bind_reuseaddr(&peers[0]).expect("rebind the node's port"),
    ))
    .expect("rebind the same port after restart");
    assert!(
        wait_for(Duration::from_secs(10), || survivors
            .iter()
            .all(|n| rows_to(n, 0).iter().all(|&r| r == (true, 2)))),
        "every survivor row to node 0 must be connected by its second attachment: {}",
        survivors.iter().map(NodeRuntime::describe).collect::<String>()
    );

    // A release through node 2 completes, and node 0 reads its value.
    let mut s = RemoteSession::connect(&peers[2], 0).expect("session on node 2");
    s.release(Key(77), 0x0A0Au64).expect("release with node 0 back");
    let mut r = RemoteSession::connect(&peers[0], 0).expect("session on restarted node 0");
    assert_eq!(r.acquire(Key(77)).unwrap().as_u64(), 0x0A0A, "{}", node0.describe());

    drop((s, r));
    node0.shutdown();
    for n in survivors {
        n.shutdown();
    }
}

/// An idle, populated cluster keeps alive in the summary plane: its
/// stores barely churn, so its keepalive sweeps are whole-store hash
/// summaries, and converged replicas never drill down to per-key digests. A
/// flat keepalive would advertise every live key of each chunk it visits.
#[test]
fn idle_populated_cluster_keeps_alive_with_summaries() {
    const KEYS: u64 = 200;
    let cfg = cfg().anti_entropy_keepalive_ns(10_000_000);
    let cluster = Cluster::launch(cfg.clone(), ProtocolMode::Kite).expect("launch");
    let _wd = cluster.watchdog(Duration::from_secs(120));
    let mut s = cluster.session(NodeId(0), 0).expect("session");
    for k in 0..KEYS {
        s.write(Key(1000 + k), k + 1).unwrap();
    }
    // The release waits out every replica's ack of the writes before it.
    s.release(Key(1), 1u64).unwrap();
    // Let the sweeps' cool-down (a few 2 ms intervals) lapse.
    std::thread::sleep(Duration::from_millis(100));
    let sum = |f: fn(&ProtoCounters) -> u64| -> u64 {
        (0..3).map(|n| f(cluster.counters(NodeId(n)))).sum()
    };
    let planes = || (sum(|c| c.ae_summaries_sent.get()), sum(|c| c.ae_digest_keys.get()));
    let before = planes();
    std::thread::sleep(Duration::from_millis(200));
    let after = planes();
    let (summaries, digest_keys) = (after.0 - before.0, after.1 - before.1);
    assert!(summaries > 0, "idle keepalive sweeps must summarize: {before:?} → {after:?}");
    // Each summary went to one peer in place of a flat chunk, which would
    // have carried that chunk's share of the live keys. A tick the host runs
    // more than 4 intervals late counts as a wake, and the sweep after a
    // wake is flat, so a loaded host may ship a few chunks: bound the
    // per-key entries at a quarter of the flat plane's, not at none.
    let slots = kite_kvs::Store::new(cfg.keys).capacity() as u64;
    let flat = summaries * KEYS * cfg.anti_entropy_chunk as u64 / slots;
    assert!(
        digest_keys * 4 <= flat,
        "idle keepalives shipped {digest_keys} per-key digest entries; \
         flat ones would have shipped ~{flat}"
    );
    drop(s);
    cluster.shutdown();
}

/// `kite-node`'s argument handling: an unknown `--flag` or a flag without a
/// value is a usage error (exit 2, usage line on stderr) instead of being
/// silently ignored, and a launch with known flags still reaches the
/// `ready on` line `scripts/e2e_tcp.sh` and the benchmark wait for.
#[test]
fn kite_node_rejects_unknown_flags_and_launches_on_known_ones() {
    // Three loopback ports nobody listens on once the probes are dropped.
    let peers = (0..3)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("probe port"))
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect::<Vec<_>>()
        .join(",");
    let node = |args: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_kite-node"));
        cmd.args(args).args(["--node", "0", "--peers", &peers]);
        cmd
    };

    for bad in [&["--bogus", "1"][..], &["--merkle-digests", "on"], &["--workers"]] {
        assert_usage_error(node(bad), bad);
    }
    assert!(
        reaches_ready(node(&["--workers", "1", "--keys", "1024"]), "flags"),
        "a known-flag launch must print the ready line"
    );
}

/// `kite-node --wal` takes exactly `on` or `off`: any other spelling is a
/// usage error, never a node that silently runs without durability.
#[test]
fn kite_node_takes_wal_on_or_off_and_nothing_else() {
    let peers = (0..3)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("probe port"))
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect::<Vec<_>>()
        .join(",");
    let node = |args: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_kite-node"));
        cmd.args(args).args(["--node", "0", "--peers", &peers, "--workers", "1", "--keys", "1024"]);
        cmd
    };
    for value in ["yes", "ON", "true", "1", ""] {
        assert_usage_error(node(&["--wal", value]), &["--wal", value]);
    }
    assert!(reaches_ready(node(&["--wal", "off"]), "wal-off"), "--wal off must launch");
}

/// `cmd` (a `kite-node` invocation) exits 2 with the usage line on stderr.
fn assert_usage_error(mut cmd: Command, args: &[&str]) {
    let mut child = cmd.stderr(Stdio::piped()).spawn().expect("spawn kite-node");
    // An accepted flag would launch a node that serves forever.
    let exited = wait_for(Duration::from_secs(10), || child.try_wait().expect("wait").is_some());
    child.kill().ok();
    assert!(exited, "{args:?} was accepted: the node launched instead of exiting");
    let out = child.wait_with_output().expect("reap kite-node");
    assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage: kite-node --node N --peers"), "{args:?}: {err}");
}

/// Whether `cmd` (a `kite-node` invocation) prints the `ready on` line
/// `scripts/e2e_tcp.sh` and the benchmark wait for; the node is killed
/// either way.
fn reaches_ready(mut cmd: Command, tag: &str) -> bool {
    let log = std::env::temp_dir().join(format!("kite-node-{tag}-{}.log", std::process::id()));
    let mut child = cmd
        .stdout(std::fs::File::create(&log).expect("stdout log"))
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn kite-node");
    let ready = wait_for(Duration::from_secs(30), || {
        std::fs::read_to_string(&log).is_ok_and(|out| out.contains("node n0 ready on 127.0.0.1:"))
    });
    child.kill().expect("kill kite-node");
    child.wait().expect("reap kite-node");
    let _ = std::fs::remove_file(&log);
    ready
}
