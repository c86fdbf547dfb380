//! `kite-node`: one Kite replica as an OS process.
//!
//! ```text
//! kite-node --node 0 --peers 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 \
//!           [--workers 2] [--sessions-per-worker 4] [--keys 65536]
//!           [--anti-entropy-interval-ns N] [--anti-entropy-chunk SLOTS]
//!           [--keepalive-ns N] [--release-timeout-ns N]
//!           [--wal on|off] [--wal-dir DIR] [--metrics-addr HOST:PORT]
//!           [--voters 0,1,2] [--learners 3] [--join HOST:PORT [--join-slot S]]
//! ```
//!
//! The daemon runs the Kite protocol with anti-entropy on; the protocol
//! ablations and the anti-entropy kill switch are the simulator's. It
//! listens on its own entry of `--peers`. `--wal` is exactly `on` or
//! `off` (the default); `--wal on` needs `--wal-dir`: the node logs into
//! its `node<N>/` subdirectory.
//!
//! `--voters`/`--learners` pin the bootstrap (membership-epoch-0) sets;
//! by default every configured slot votes. `--join <seed-addr>` admits
//! this node into a **running** cluster before it starts serving: it
//! claims a client session on the seed and commits the add-learner
//! successor config through [`RemoteSession::change_membership`] — the
//! config change rides the same per-key Paxos as any workload RMW.
//! The node then launches normally and bulk-syncs as a non-voting
//! learner; `kite-client reconfig promote` makes it a voter once its
//! anti-entropy catch-up converges.
//!
//! `--metrics-addr` opens the plain-text scrape endpoint (`kite-client
//! scrape` / `nc`): one `key value` line per metric, or the full watchdog
//! dump when the request line is `dump`. The endpoint is served by worker
//! 0's existing epoll loop — no extra threads.
//!
//! Every argument is a `--flag value` pair from the list above; an unknown
//! flag or a flag without a value prints the usage line and exits 2.
//!
//! The fabric listener also accepts remote client sessions (`kite-client`,
//! [`kite_net::RemoteSession`]). SIGTERM/SIGINT trigger a clean shutdown
//! through the worker stop-flag path: the process prints a final link
//! report and exits 0.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use kite::ProtocolMode;
use kite_common::{ClusterConfig, Membership, NodeId, NodeSet};
use kite_net::sys::{self, PollFd, Waker};
use kite_net::{bind_reuseaddr, NodeConfig, NodeRuntime, RemoteSession};

static STOP: AtomicBool = AtomicBool::new(false);
/// The eventfd the main thread sleeps on; the signal handler writes it.
static STOP_WAKER: OnceLock<Waker> = OnceLock::new();

extern "C" fn on_signal(_sig: i32) {
    STOP.store(true, Ordering::SeqCst);
    if let Some(waker) = STOP_WAKER.get() {
        waker.wake();
    }
}

/// Install `on_signal` for SIGTERM and SIGINT ([`sys::on_stop_signals`])
/// and return the eventfd it writes.
fn install_signal_handlers() -> &'static Waker {
    let waker = STOP_WAKER.get_or_init(|| {
        Waker::new().unwrap_or_else(|e| {
            eprintln!("kite-node: stop eventfd: {e}");
            std::process::exit(1);
        })
    });
    // SAFETY: `on_signal` is async-signal-safe — it stores to an atomic,
    // reads an already-initialized `OnceLock` (one atomic load; it is set
    // above, before the handler can run) and `write(2)`s the eventfd.
    unsafe { sys::on_stop_signals(on_signal) };
    waker
}

/// Every flag `main` reads; anything else is a usage error.
const FLAGS: [&str; 16] = [
    "node", "peers", "workers", "sessions-per-worker", "keys", "anti-entropy-interval-ns",
    "anti-entropy-chunk", "keepalive-ns", "release-timeout-ns", "wal", "wal-dir", "metrics-addr",
    "voters", "learners", "join", "join-slot",
];

fn usage() -> ! {
    eprintln!(
        "usage: kite-node --node N --peers addr0,addr1,... \
         [--workers W] [--sessions-per-worker S] [--keys K] \
         [--anti-entropy-interval-ns N] [--anti-entropy-chunk SLOTS] \
         [--keepalive-ns N] [--release-timeout-ns N] \
         [--wal on|off] [--wal-dir DIR] [--metrics-addr HOST:PORT] \
         [--voters 0,1,2] [--learners 3] [--join HOST:PORT [--join-slot S]]"
    );
    std::process::exit(2);
}

/// Parse a comma-separated node-id list (`"0,1,2"`) into a [`NodeSet`].
fn parse_node_set(flag: &str, raw: &str) -> NodeSet {
    let mut set = NodeSet::EMPTY;
    for part in raw.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part.parse::<u8>() {
            Ok(id) if (id as usize) < kite_common::NodeId::MAX_NODES => set.insert(NodeId(id)),
            _ => {
                eprintln!("kite-node: bad --{flag} entry {part:?}");
                std::process::exit(2);
            }
        }
    }
    set
}

/// Admit `me` into a running cluster as a non-voting learner, through a
/// client session on `seed` ([`RemoteSession::change_membership`]).
/// Returns the membership epoch this node was admitted at.
fn join_as_learner(
    seed: &str,
    slot: u32,
    me: NodeId,
    cluster: &ClusterConfig,
) -> Result<u32, String> {
    let mut s = RemoteSession::connect(seed, slot)
        .map_err(|e| format!("connect seed {seed} slot {slot}: {e}"))?;
    let admitted = s
        .change_membership(
            || Membership::bootstrap(cluster),
            // Only a *stored* membership (epoch ≥ 1) counts as "already
            // admitted" — the bootstrap lists every slot as a voter, so
            // stopping on it would skip the add-learner change entirely.
            // A stored one naming `me` is a previous (interrupted) join
            // attempt that landed.
            |cur| (cur.epoch == 0 || !cur.members().contains(me)).then(|| cur.with_learner(me)),
        )
        .map_err(|e| format!("config change: {e}"))?;
    Ok(admitted.epoch)
}

/// Bind `addr` with `SO_REUSEADDR` — a restarted node rebinds its ports at
/// once, through its predecessor's TIME_WAIT sockets — or exit.
fn bind_or_exit(what: &str, addr: &str) -> TcpListener {
    bind_reuseaddr(addr).unwrap_or_else(|e| {
        eprintln!("kite-node: bind {what} {addr}: {e}");
        std::process::exit(1);
    })
}

fn main() {
    // Collect `--flag value` pairs.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts: HashMap<String, String> = HashMap::new();
    for pair in args.chunks(2) {
        let (Some(flag), Some(value)) = (pair[0].strip_prefix("--"), pair.get(1)) else { usage() };
        if !FLAGS.contains(&flag) {
            eprintln!("kite-node: unknown flag --{flag}");
            usage();
        }
        opts.insert(flag.replace('-', "_"), value.clone());
    }

    let get = |k: &str| opts.get(k).cloned();
    let parse_u64 = |k: &str, d: u64| -> u64 {
        get(k).map(|v| v.parse().unwrap_or_else(|_| {
            eprintln!("kite-node: bad {k}: {v}");
            std::process::exit(2);
        })).unwrap_or(d)
    };

    let Some(node) = get("node").and_then(|v| v.parse::<u8>().ok()) else { usage() };
    let Some(peers_raw) = get("peers") else { usage() };
    let peers: Vec<String> = peers_raw.split(',').map(|s| s.trim().to_string()).collect();

    let workers = parse_u64("workers", 2) as usize;
    let mut cluster = ClusterConfig::default()
        .nodes(peers.len())
        .workers_per_node(workers)
        .sessions_per_worker(parse_u64("sessions_per_worker", 4) as usize)
        .keys(parse_u64("keys", 1 << 16) as usize)
        .release_timeout_ns(parse_u64("release_timeout_ns", 1_000_000))
        .anti_entropy_keepalive_ns(parse_u64("keepalive_ns", 0));
    let (ae_interval, ae_chunk) = (cluster.anti_entropy_interval_ns, cluster.anti_entropy_chunk);
    cluster = cluster
        .anti_entropy_interval_ns(parse_u64("anti_entropy_interval_ns", ae_interval))
        .anti_entropy_chunk(parse_u64("anti_entropy_chunk", ae_chunk as u64) as usize);
    match get("wal").as_deref() {
        None | Some("off") => {}
        Some("on") => match get("wal_dir") {
            Some(dir) if !dir.is_empty() => cluster = cluster.wal_dir(dir),
            _ => {
                eprintln!("kite-node: --wal on needs --wal-dir");
                usage();
            }
        },
        Some(other) => {
            eprintln!("kite-node: --wal takes on or off, not {other:?}");
            usage();
        }
    }
    if let Some(v) = get("voters") {
        cluster = cluster.initial_voters(parse_node_set("voters", &v));
    }
    if let Some(l) = get("learners") {
        cluster = cluster.initial_learners(parse_node_set("learners", &l));
    }

    let stop_waker = install_signal_handlers();

    // `--join`: commit the add-learner config change through the seed
    // BEFORE launching. The node then boots on its (now stale) bootstrap
    // membership and converges in one round trip: its first epoch-0
    // frames are dropped as stale by every peer, which answers with a
    // repair of the membership key — installing the real config, learner
    // bit included. Anti-entropy bulk-sync does the rest.
    if let Some(seed) = get("join") {
        let slot_default = (workers * cluster.sessions_per_worker) as u64 - 1;
        let join_slot = parse_u64("join_slot", slot_default) as u32;
        match join_as_learner(&seed, join_slot, NodeId(node), &cluster) {
            Ok(epoch) => println!(
                "kite-node: node {node} joined via {seed} as learner at membership epoch {epoch}"
            ),
            Err(e) => {
                eprintln!("kite-node: join via {seed} failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let Some(addr) = peers.get(node as usize) else {
        eprintln!("kite-node: node id {node} out of range for {} peers", peers.len());
        std::process::exit(2);
    };
    let fabric = bind_or_exit("fabric", addr);
    let node_cfg = NodeConfig {
        metrics_listener: get("metrics_addr").map(|m| bind_or_exit("metrics", &m)),
        ..NodeConfig::new(cluster, ProtocolMode::Kite, NodeId(node), peers, fabric)
    };
    let runtime = match NodeRuntime::launch(node_cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("kite-node: launch failed: {e}");
            std::process::exit(1);
        }
    };
    // Machine-greppable recovery line (the e2e script asserts the restart
    // replayed a tail instead of re-replicating the world).
    if let Some(r) = runtime.recovery() {
        println!(
            "kite-node: node {} recovered snapshot_entries={} wal_records={} segments={} \
             truncated={}",
            runtime.node(),
            r.snapshot_entries,
            r.replayed_records,
            r.segments,
            r.truncated
        );
    }
    // Machine-greppable readiness line (the e2e script waits for it —
    // extra detail goes after the `ready on <addr>` prefix it greps).
    match runtime.metrics_addr() {
        Some(m) => println!(
            "kite-node: node {} ready on {} ({workers} event-loop worker(s), metrics on {m})",
            runtime.node(),
            runtime.addr(),
        ),
        None => println!(
            "kite-node: node {} ready on {} ({workers} event-loop worker(s))",
            runtime.node(),
            runtime.addr(),
        ),
    }

    // Sleep until a signal: the handler writes the stop eventfd, and a
    // signal that lands between the check and the `poll` has already made
    // it readable.
    while !STOP.load(Ordering::SeqCst) {
        if let Err(e) = sys::poll_fds(&mut [PollFd::readable(stop_waker.fd())], -1) {
            eprintln!("kite-node: poll on the stop eventfd failed: {e}");
            break;
        }
    }

    eprintln!("kite-node: node {} shutting down\n{}", runtime.node(), runtime.describe());
    runtime.shutdown();
    println!("kite-node: clean exit");
}
