//! The fabric's wake economy, asserted on its own counters (never on
//! wall-clock CPU): no thread wakes without work, and a wake makes only the
//! syscalls that move bytes.
//!
//! * idle — a 3-node loopback cluster with the WAL on, links up, no load:
//!   the WAL flusher stays asleep, and once the
//!   anti-entropy sweep has wound down the event loops sleep too — there is
//!   no timer beat, a loop wakes for its actor's next deadline (the
//!   keepalive sweep, when one is configured) and for its peers' sweeps,
//!   and for nothing else; a
//!   connected session's op still completes at once, because the bytes it
//!   writes make the loop's socket readable and that ends the park;
//! * driven — under a mixed closed-loop workload every op completes, a
//!   loop goes round once per wake or timer (5 % slack for the passes that
//!   follow conn intake and a client ring that was full) and almost no
//!   `read` is spent fetching `EAGAIN`;
//! * pipelined — a burst of relaxed writes that fills the session's write
//!   window stalls until acks arrive; the loop waits for them in
//!   `epoll_wait` instead of going round re-trying the stalled op, and a
//!   pass starts every op the client has submitted, so a pipelined client
//!   costs passes per window, not per two ops;
//! * burst — a peer that sends 200 KB in one go, right behind its hello, is
//!   drained completely by the loop the hello names: the hello read stops
//!   at the hello, and the stop-after-a-short-read rule and the
//!   `READ_QUANTUM` fairness bound strand nothing.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kite::api::{Completion, Op};
use kite::msg::Msg;
use kite::wire::{self, Hello};
use kite::ProtocolMode;
use kite_common::{ClusterConfig, Key, NodeId, SessionId, Val};
use kite_net::{
    spawn_tcp_workers, ClientPort, Cluster, LinkPhase, LoopStats, NodeRuntime, RemoteSession,
    TcpNet, TcpNetCfg,
};
use kite_simnet::{Actor, Outbox, Wakeup};

fn wait_for(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

fn load(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// One node's wake counters at an instant.
#[derive(Clone, Copy, Debug)]
struct Snap {
    passes: u64,
    wakes: u64,
    idle_ticks: u64,
    reads: u64,
    read_eagain: u64,
    flusher_wakes: u64,
    ae_summaries: u64,
}

fn snap(n: &NodeRuntime) -> Snap {
    let f = n.fabric_stats();
    let l: &LoopStats = &f.loops[0];
    Snap {
        passes: load(&l.passes),
        wakes: load(&l.wakes),
        idle_ticks: load(&l.idle_ticks),
        reads: load(&l.reads),
        read_eagain: load(&l.read_eagain),
        flusher_wakes: n.wal().map_or(0, |w| w.stats().flusher_wakes),
        ae_summaries: n.counters().ae_summaries_sent.get(),
    }
}

fn launch(tag: &str) -> (Vec<NodeRuntime>, std::path::PathBuf) {
    launch_with_keepalive(tag, 0)
}

fn launch_with_keepalive(tag: &str, keepalive_ns: u64) -> (Vec<NodeRuntime>, std::path::PathBuf) {
    let wal_dir =
        std::env::temp_dir().join(format!("kite-loop-economy-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let cfg = ClusterConfig::small()
        .sessions_per_worker(4)
        .release_timeout_ns(50_000_000)
        .anti_entropy_keepalive_ns(keepalive_ns)
        .wal_dir(wal_dir.to_str().expect("utf8"));
    let nodes = Cluster::launch(cfg, ProtocolMode::Kite).expect("launch").into_nodes();
    let all_up = || {
        nodes.iter().enumerate().all(|(me, n)| {
            (0..nodes.len())
                .filter(|&p| p != me)
                .all(|p| n.links().link(NodeId(p as u8), 0).phase() == LinkPhase::Connected)
        })
    };
    assert!(wait_for(Duration::from_secs(30), all_up), "links never all connected");
    (nodes, wal_dir)
}

/// Passes an idle daemon's loop may make per second beyond its actor's own
/// timers and its peers' keepalive sweeps (stray readiness, a redial, the
/// scrape below).
const IDLE_WAKES_PER_S: u64 = 50;

#[test]
fn idle_cluster_makes_no_wakes_without_work() {
    // Keepalive off: nothing is scheduled once the sweep has wound down.
    // Keepalive on (50 ms): the loop's own timer plus one sweep from each
    // peer per keepalive — the node count times its timer rate.
    const KEEPALIVE_NS: u64 = 50_000_000;
    let (quiet, quiet_dir) = launch("idle");
    let (nodes, wal_dir) = launch_with_keepalive("idle-keepalive", KEEPALIVE_NS);
    // Let the connect-time hellos settle and the birth-time sweep (a
    // Merkle cycle plus the resync pings, ~35 ms at this size) wind down.
    std::thread::sleep(Duration::from_millis(400));
    let before: Vec<Vec<Snap>> = [&quiet, &nodes].map(|c| c.iter().map(snap).collect()).into();
    std::thread::sleep(Duration::from_secs(1));
    for (c, (cluster, keepalive_per_s)) in
        [(&quiet, 0), (&nodes, 1_000_000_000 / KEEPALIVE_NS)].into_iter().enumerate()
    {
        let mut cluster_ticks = 0;
        for (n, (node, b)) in cluster.iter().zip(&before[c]).enumerate() {
            let a = snap(node);
            let (passes, wakes, ticks) =
                (a.passes - b.passes, a.wakes - b.wakes, a.idle_ticks - b.idle_ticks);
            cluster_ticks += ticks;
            assert!(
                a.flusher_wakes - b.flusher_wakes <= 5,
                "cluster {c} node {n}: idle WAL flusher woke {} times in 1 s",
                a.flusher_wakes - b.flusher_wakes
            );
            let timers = keepalive_per_s * cluster.len() as u64;
            assert!(
                passes <= timers + IDLE_WAKES_PER_S,
                "cluster {c} node {n}: an idle loop made {passes} passes in 1 s \
                 ({wakes} wakes, {ticks} timer ticks; keepalive {keepalive_per_s}/s)"
            );
            // Every node keeps alive on its own: one summary to each peer
            // per keepalive, whichever wake ran the sweep.
            let peers = cluster.len() as u64 - 1;
            let summaries = a.ae_summaries - b.ae_summaries;
            assert!(
                summaries >= keepalive_per_s / 2 * peers,
                "cluster {c} node {n}: {summaries} keepalive summaries in 1 s \
                 ({keepalive_per_s} sweeps due, {peers} peers)"
            );
            // A peer's summary that lands just after a node's own deadline
            // runs that node's sweep on the same wake, so any one of its
            // deadlines may show up as a wake instead of a tick; a loop with
            // no keepalive deadline armed never ticks at all.
            assert!(
                ticks >= keepalive_per_s.min(1),
                "cluster {c} node {n}: the keepalive deadline never woke the loop \
                 ({ticks} timer ticks in 1 s, {keepalive_per_s} due)"
            );
        }
        // The cluster's first sweep of each period has no summary ahead of
        // it: that one is always a timer tick.
        assert!(
            cluster_ticks >= keepalive_per_s / 2,
            "cluster {c}: the keepalive deadline is not waking the loops \
             ({cluster_ticks} timer ticks in 1 s, {keepalive_per_s} due per node)"
        );
    }

    // A parked loop has no timer to find a client's op with: the
    // submission's socket readiness must end the park. Connect first (the
    // hello wakes the loop), let the loop park again, then
    // time the op alone.
    let mut client = RemoteSession::connect(&quiet[0].addr().to_string(), 1).expect("session");
    std::thread::sleep(Duration::from_millis(50));
    let t = Instant::now();
    client.read(Key(7)).expect("read on a parked loop");
    assert!(
        t.elapsed() < Duration::from_millis(5),
        "an op waited {:?} for a loop with no deadline to notice it",
        t.elapsed()
    );
    drop(client);
    for n in quiet {
        n.shutdown();
    }
    let _ = std::fs::remove_dir_all(&quiet_dir);

    // The same numbers are on the scrape endpoint and in the dump view.
    let fetch = |view: &str| {
        let addr = nodes[0].metrics_addr().expect("metrics endpoint");
        let mut s = TcpStream::connect(addr).expect("connect metrics endpoint");
        s.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        s.write_all(format!("{view}\n").as_bytes()).expect("send request");
        let mut body = String::new();
        s.read_to_string(&mut body).expect("read response");
        body
    };
    let body = fetch("scrape");
    for key in [
        "loop_w0_passes",
        "loop_w0_epoll_waits",
        "loop_w0_wakes",
        "loop_w0_idle_ticks",
        "loop_w0_reads",
        "loop_w0_read_eagain",
        "loop_w0_writevs",
        "loop_w0_writev_frames",
        "loop_w0_envelopes",
        "loop_w0_envelope_msgs",
        "loop_w0_pumps",
        "loop_w0_completions",
        "wal_flusher_wakes",
        "wal_commit_busy_ns",
    ] {
        let line = body.lines().find(|l| l.split(' ').next() == Some(key));
        let value = line.and_then(|l| l.split(' ').nth(1)).and_then(|v| v.parse::<u64>().ok());
        assert!(value.is_some(), "scrape view has no numeric `{key}`:\n{body}");
    }
    let dump = fetch("dump");
    for needle in ["loop w0: passes=", "flusher_wakes=", "commit_busy="] {
        assert!(dump.contains(needle), "dump view lacks `{needle}`:\n{dump}");
    }

    for n in nodes {
        n.shutdown();
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn driven_cluster_goes_round_once_per_wake() {
    let (nodes, wal_dir) = launch("driven");
    let _wd = nodes[0].watchdog(Duration::from_secs(120));
    let before: Vec<Snap> = nodes.iter().map(snap).collect();
    let completed_before: u64 = nodes.iter().map(|n| n.counters().completed.get()).sum();

    // One closed-loop client per node, each on its own thread: reads,
    // writes, a release/acquire pair and an RMW per round, on shared keys.
    const ROUNDS: u64 = 150;
    const OPS_PER_ROUND: u64 = 6;
    let clients: Vec<_> = nodes
        .iter()
        .enumerate()
        .map(|(n, node)| {
            let addr = node.addr().to_string();
            std::thread::spawn(move || {
                let mut s = RemoteSession::connect(&addr, 0).expect("session");
                for i in 0..ROUNDS {
                    let k = 1 + (i * 7 + n as u64) % 64;
                    s.write(Key(k), i + 1).expect("write");
                    s.read(Key(k)).expect("read");
                    s.read(Key(1 + (k + 13) % 64)).expect("read");
                    s.release(Key(100 + n as u64), i + 1).expect("release");
                    s.acquire(Key(100 + (n as u64 + 1) % 3)).expect("acquire");
                    s.fetch_add(Key(200), 1).expect("faa");
                }
                s
            })
        })
        .collect();
    // Sessions stay open until the counters are read: a close is traffic.
    let sessions: Vec<RemoteSession> =
        clients.into_iter().map(|c| c.join().expect("client thread")).collect();

    let submitted = ROUNDS * OPS_PER_ROUND * nodes.len() as u64;
    let completed: u64 = nodes.iter().map(|n| n.counters().completed.get()).sum();
    assert!(
        completed - completed_before >= submitted,
        "{submitted} ops submitted, {} completed",
        completed - completed_before
    );
    for (n, (node, b)) in nodes.iter().zip(&before).enumerate() {
        let a = snap(node);
        // Timer ticks of the gaps between ops are passes without a wake by
        // definition; what is bounded is the passes the *traffic* caused.
        let passes = (a.passes - b.passes) - (a.idle_ticks - b.idle_ticks);
        let wakes = a.wakes - b.wakes;
        let (reads, eagain) = (a.reads - b.reads, a.read_eagain - b.read_eagain);
        assert!(wakes > 0 && reads > 0, "node {n} saw no traffic: {a:?}");
        assert!(
            passes * 20 <= wakes * 21,
            "node {n}: {passes} passes for {wakes} wakes (> 1.05 per wake)"
        );
        assert!(
            eagain * 20 <= reads,
            "node {n}: {eagain} of {reads} reads only fetched EAGAIN (> 5 %)"
        );
        // The batching pairs count what they say: every op this node's
        // client submitted went back through a pump, and an envelope, a
        // `writev` and a pump each carry at least one of their unit. The
        // pump counts a batch after writing it, so the last op's count may
        // land just after its completion did.
        let l = &node.fabric_stats().loops[0];
        assert!(
            wait_for(Duration::from_secs(10), || load(&l.completions) >= ROUNDS * OPS_PER_ROUND),
            "node {n}: {} completions",
            load(&l.completions)
        );
        let (pumps, completions) = (load(&l.pumps), load(&l.completions));
        assert!((1..=completions).contains(&pumps), "node {n}: {pumps} pumps");
        let (envelopes, msgs) = (load(&l.envelopes), load(&l.envelope_msgs));
        assert!(envelopes > 0 && msgs >= envelopes, "node {n}: {msgs} msgs / {envelopes}");
        let (writevs, frames) = (load(&l.writevs), load(&l.writev_frames));
        assert!(writevs > 0 && frames > 0, "node {n}: {frames} frames / {writevs} writevs");
    }
    drop(sessions);
    for n in nodes {
        n.shutdown();
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn a_full_write_window_is_waited_out_in_epoll_not_spun_on() {
    let (nodes, wal_dir) = launch("pipelined");
    let _wd = nodes[0].watchdog(Duration::from_secs(120));
    let mut s = RemoteSession::connect(&nodes[0].addr().to_string(), 0).expect("session");
    let before = snap(&nodes[0]);

    // Relaxed writes complete at once but each stays in the session's write
    // window (64 by default) until every replica acked it, so 4096 of them
    // submitted in bursts of 256 keep the session stalled most of the time.
    const OPS: u64 = 4096;
    for burst in 0..OPS / 256 {
        for i in 0..256 {
            let k = burst * 256 + i;
            s.submit(Op::Write { key: Key(k % 512), val: Val::from_u64(k) }).expect("submit");
        }
        s.flush().expect("flush");
        for _ in 0..256 {
            s.next_completion().expect("completion");
        }
    }

    let a = snap(&nodes[0]);
    let passes = (a.passes - before.passes) - (a.idle_ticks - before.idle_ticks);
    let wakes = a.wakes - before.wakes;
    // Every pass is a readiness wake, save the few that follow a pass which
    // left work behind (conn intake, a client ring that was full): at most
    // one per window's worth of ops. Re-trying a stalled op is not such
    // work — the old loop went round ~10 times per op here — and neither is
    // a client's submitted ops, started two per pass by the loop before
    // that (~2 070 passes here, two thirds of them no wake).
    let windows = OPS / ClusterConfig::WRITE_WINDOW as u64;
    assert!(
        passes <= wakes + windows,
        "{passes} passes for {wakes} wakes and {OPS} ops: the loop went round for a \
         stalled or budget-limited session"
    );
    drop(s);
    for n in nodes {
        n.shutdown();
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// Counts every message the fabric delivers.
struct Sink(Arc<AtomicU64>);

impl Actor for Sink {
    type Msg = Msg;

    fn on_envelope(
        &mut self,
        _src: NodeId,
        _mepoch: u32,
        msgs: &mut Vec<Msg>,
        _now: u64,
        _out: &mut Outbox<Msg>,
    ) {
        self.0.fetch_add(msgs.len() as u64, Ordering::Relaxed);
        msgs.clear();
    }

    fn on_tick(&mut self, _now: u64, _out: &mut Outbox<Msg>) -> Wakeup {
        Wakeup::IDLE
    }

    fn describe(&self, out: &mut String) {
        out.push_str("sink\n");
    }
}

/// Serves no client sessions.
impl ClientPort for Sink {
    fn submit(&mut self, _session: SessionId, _op: Op) {}

    fn completions(&mut self) -> impl Iterator<Item = Completion> + '_ {
        std::iter::empty()
    }
}

#[test]
fn a_200_kb_burst_from_one_peer_is_fully_drained() {
    // Worker 0's loop accepts; the hello names either that loop or another
    // one, which then reads everything after the hello.
    burst_drains(1, 0);
    burst_drains(2, 1);
}

/// Node 1 with `workers` loops; a peer connects as node 0's worker
/// `target` (the lower id dials) and sends its hello and a 200 KB burst in
/// a single write.
fn burst_drains(workers: usize, target: usize) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind node 1");
    let me_addr = listener.local_addr().unwrap().to_string();
    // Node 0's slot is retired (empty address), and node 1 never dials a
    // lower id: the test plays node 0's side of the link by hand.
    let (net, ios) = TcpNet::bind(TcpNetCfg {
        me: NodeId(1),
        peers: vec![String::new(), me_addr.clone()],
        workers,
        sessions_per_worker: 1,
        listener,
    })
    .expect("bind fabric");
    let delivered: Vec<Arc<AtomicU64>> = (0..workers).map(|_| Arc::default()).collect();
    let rigs = ios.into_iter().map(|io| (Sink(Arc::clone(&delivered[io.worker])), io)).collect();
    let handle = spawn_tcp_workers(rigs, &net);
    let got = || delivered[target].load(Ordering::Relaxed);

    // ~2 KB per frame, 110 frames: past three read chunks, short of the
    // read quantum plus one — both rules are on the path.
    let batch = vec![Msg::AckBatch { rids: vec![7u64; 250] }];
    let hello = wire::encode_hello(Hello::Peer { node: NodeId(0), worker: target as u16 });
    let mut burst = hello.to_vec();
    let mut frames = 0u64;
    while burst.len() < 220 << 10 {
        frames += wire::encode_frames(NodeId(0), 0, &batch, &mut burst) as u64;
    }
    let mut peer = TcpStream::connect(&me_addr).expect("connect as node 0");
    peer.set_nodelay(true).expect("nodelay");
    peer.write_all(&burst).expect("hello and burst in one write");

    assert!(
        wait_for(Duration::from_secs(30), || got() == frames),
        "{workers} loops: burst of {frames} frames stranded: {} delivered\n{}",
        got(),
        net.links().describe()
    );
    let link = net.links().link(NodeId(0), target);
    assert_eq!(link.frames_in.load(Ordering::Relaxed), frames);
    assert_eq!(link.decode_errors.load(Ordering::Relaxed), 0);
    let others: u64 = (delivered.iter().enumerate())
        .filter(|&(w, _)| w != target)
        .map(|(_, d)| d.load(Ordering::Relaxed))
        .sum();
    assert_eq!(others, 0, "frames reached a loop the hello did not name");
    // A burst this size is a handful of reads, not one per frame.
    let reads = load(&net.stats().loops[target].reads);
    assert!((4..frames).contains(&reads), "{reads} reads for a {} B burst", burst.len());

    // The connection is still healthy: a trickle after the burst arrives.
    let mut tail = Vec::new();
    wire::encode_frames(NodeId(0), 0, &batch, &mut tail);
    peer.write_all(&tail).expect("trickle");
    assert!(
        wait_for(Duration::from_secs(30), || got() == frames + 1),
        "frame after the burst never arrived"
    );

    drop(peer);
    handle.stop_and_join();
}
