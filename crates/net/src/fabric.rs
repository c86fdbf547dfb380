//! `TcpNet`: the real-socket fabric, run-to-completion event loops that
//! drive the sans-io actors of one node.
//!
//! One `TcpNet` serves **one node** of the cluster (the simulator owns all
//! nodes; here every node is its own OS process — or its own `TcpNet`
//! instance when [`crate::Cluster`] runs a whole cluster on loopback):
//!
//! * **One event loop per worker.** The worker thread *is* the I/O loop:
//!   an epoll instance (raw-libc FFI — the workspace carries no mio/tokio)
//!   watches every socket the worker owns, and readiness events, protocol
//!   ticks and outbox flushes all run on the same thread with no handoff
//!   queues. Thread budget per node: `workers + 1` (the acceptor), not
//!   `O(peers × workers)` writer/reader threads.
//! * **No wake without work.** A loop goes round again without blocking
//!   only when something is known to be pending — the actor said another
//!   tick would start more right now (`Wakeup::more_now`: a session
//!   stopped at its per-tick budget), the loopback queue or the conn
//!   intake delivered, or completions are waiting behind a full client
//!   ring; otherwise the pass ends in an `epoll_wait` that blocks until
//!   the earliest deadline anyone holds — the actor's own
//!   (`Wakeup::next_deadline`: retransmission scan, release timeout,
//!   back-off, anti-entropy sweep) or a peer link's redial — and forever
//!   when nobody holds one. There is no timer beat: a client's submission
//!   is socket readiness like any other, and whatever needs the loop from
//!   outside (the acceptor handing over a connection, a sibling's kick, a
//!   stop or dump request, an address change) writes the loop's eventfd.
//!   A readable socket costs one `read`
//!   into an already-initialized buffer — a short read means the kernel
//!   queue is empty, and level-triggered epoll re-reports what races in.
//!   The acceptor blocks in `poll(2)` on its listener, its half-read
//!   hellos and a stop eventfd: nobody connecting means zero wakes. The
//!   loop-health counters ([`crate::link::LoopStats`]) make each of these
//!   a scrapeable number.
//! * **Worker peering (§6.3).** Worker *w* dials exactly one nonblocking
//!   connection to each peer node, announced by a [`wire::Hello::Peer`]
//!   handshake, and peers route inbound frames to *their* worker *w* —
//!   one connection per remote worker, like the paper's RDMA QP layout.
//!   Reconnect-with-backoff is loop state (a deadline per peer), not a
//!   thread blocked in `connect`.
//! * **Bounded outbound rings.** Each peer link drains through an
//!   [`OutRing`] of encoded frames via vectored writes. A peer that stops
//!   reading fills the ring and then *sheds* frames (counted on the link)
//!   — the fabric behaves like a lossy NIC under backpressure, which is
//!   exactly the failure model the protocols already recover from, so a
//!   stalled peer bounds sender memory instead of growing a writer queue.
//!   The same drop point takes injected loss: a link given a drop
//!   probability ([`LinkTable::set_drop`]) loses envelopes before they are
//!   framed — the §8.4 lossy-link fault on real sockets.
//! * **Readiness-driven reads.** Inbound bytes accumulate in a per-
//!   connection buffer; complete frames decode into pool-recycled
//!   `Vec<Msg>` buffers and feed `Actor::on_envelope` directly. A
//!   malformed frame closes that connection — never panics a worker — and
//!   is counted on the link for the watchdog.
//! * **Clients in the loop.** Client connections (session claims) are
//!   served by the owning worker's loop too: each loop holds the channels
//!   of its own session slots, a claim takes a slot's pair out (once, no
//!   lock), `Submit` frames feed the session op channel, and completions
//!   drain into the connection's ring.
//! * **Zero-allocation steady state.** Outbound: `Outbox::flush` batches
//!   encode into pooled byte buffers; the ring recycles them after the
//!   socket accepts the bytes, and drained `Vec<Msg>` batches go straight
//!   back to the outbox pool. Inbound: decode buffers circulate through
//!   the shared message pool; per-connection read buffers are retained
//!   across reads.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use kite::api::{Completion, Op};
use kite::wire::{self, ClientFrame, Hello};
use kite::Msg;
use kite_common::rng::SplitMix64;
use kite_common::stats::ProtoCounters;
use kite_common::{NodeId, SessionId};
use kite_simnet::{Actor, Clock, Dumper, Outbox, Wake, Wakeup, WallClock};
use parking_lot::Mutex;

use crate::link::{bump, FabricStats, LinkTable, LoopStats};
use crate::ring::{Drain, OutRing, Pool, ReadBuf};
use crate::sys::{
    self, PollFd, Poller, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};

/// Reconnect backoff floor.
const BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Reconnect backoff ceiling.
const BACKOFF_MAX: Duration = Duration::from_millis(500);
/// Nonblocking dial deadline per attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Handshake deadline for accepted connections.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);
/// Bound on pooled spare buffers (per pool).
const POOL_CAP: usize = 64;
/// Bytes read from one connection per readiness service (fairness bound —
/// level-triggered epoll re-reports anything left).
const READ_QUANTUM: usize = 256 << 10;
/// Read chunk size (the per-connection [`ReadBuf`]'s initial length).
const READ_CHUNK: usize = 64 << 10;

/// The cluster's dial targets, mutable at runtime: one `(address,
/// generation)` slot per node id. The generation bumps on every address
/// change, which is what lets a worker stuck deep in the redial backoff
/// ladder notice that the operator moved the peer and start over at the
/// backoff floor — without it, a node whose address was fixed after a
/// botched deploy keeps being dialed at the *old* address until the
/// process restarts (the dead-address bug this table replaces).
///
/// An empty address retires the slot: the loops stop dialing it and mark
/// its [`LinkTable`] rows [`crate::link::LinkPhase::Retired`]. Setting a
/// real address later revives it through the normal dial path.
pub struct PeerTable {
    slots: Mutex<Vec<(String, u64)>>,
    /// Bumped with every address change anywhere in the table: the one
    /// load a worker loop's dial pass makes while all its links are up.
    changes: AtomicU64,
}

impl PeerTable {
    /// A table seeded with the boot-time address list.
    pub fn new(addrs: Vec<String>) -> PeerTable {
        PeerTable {
            slots: Mutex::new(addrs.into_iter().map(|a| (a, 0)).collect()),
            changes: AtomicU64::new(0),
        }
    }

    /// How many address changes the table has seen (any slot).
    // ordering: Relaxed — the bump happens inside the `slots` critical
    // section and a loop that observes it goes on to lock `slots`, which
    // orders it after the writer; a stale read is retried next pass.
    pub fn changes(&self) -> u64 {
        self.changes.load(Ordering::Relaxed)
    }

    /// The current `(address, generation)` of `node`'s slot.
    pub fn get(&self, node: usize) -> (String, u64) {
        self.slots.lock()[node].clone()
    }

    /// The current generation of `node`'s slot (the dial loop probes it
    /// once [`PeerTable::changes`] has moved).
    pub fn generation(&self, node: usize) -> u64 {
        self.slots.lock()[node].1
    }

    /// Replace `node`'s dial address. Returns `true` if the address
    /// actually changed (and thus the generation bumped). An empty string
    /// retires the slot.
    pub fn set(&self, node: usize, addr: impl Into<String>) -> bool {
        let addr = addr.into();
        let mut slots = self.slots.lock();
        let slot = &mut slots[node];
        if slot.0 == addr {
            return false;
        }
        slot.0 = addr;
        slot.1 += 1;
        // ordering: see `changes()`.
        self.changes.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// Configuration of one node's fabric endpoint.
pub struct TcpNetCfg {
    /// This node's id.
    pub me: NodeId,
    /// Fabric address of every node, indexed by node id (`peers[me]` is the
    /// address *this* node listens on, unless `listener` overrides it).
    pub peers: Vec<String>,
    /// Worker threads per node (uniform across the cluster — worker
    /// peering needs both sides to agree).
    pub workers: usize,
    /// Session slots per worker — routes a client's slot claim to
    /// the worker whose loop will serve the connection.
    pub sessions_per_worker: usize,
    /// Pre-bound listener override: lets tests bind `127.0.0.1:0` first
    /// and distribute the real addresses.
    pub listener: Option<TcpListener>,
}

/// A freshly accepted, handshake-complete connection routed to a worker
/// loop by the acceptor.
enum NewConn {
    /// Peer fabric traffic from `src` (the hello's worker picked us).
    Peer {
        /// Sending node.
        src: NodeId,
        /// The connection (hello consumed, nonblocking).
        stream: TcpStream,
    },
    /// A client claiming session `slot`.
    Client {
        /// Claimed slot (node-wide index).
        slot: u32,
        /// The connection (hello consumed, nonblocking).
        stream: TcpStream,
    },
}

/// Everything a worker's event loop needs from the fabric: the conn intake
/// from the acceptor plus the shared pools, links and counters.
pub struct TcpWorkerIo {
    /// Node this IO bundle belongs to.
    pub node: NodeId,
    /// Worker index within the node.
    pub worker: usize,
    conn_rx: Receiver<NewConn>,
    waker: Arc<Waker>,
    /// Wakers of the node's other worker loops (`Wakeup::kick_siblings`).
    siblings: Vec<Arc<Waker>>,
    peers: Arc<PeerTable>,
    links: Arc<LinkTable>,
    stats: Arc<FabricStats>,
    byte_pool: Arc<Pool<u8>>,
    msg_pool: Arc<Pool<Msg>>,
    counters: Arc<ProtoCounters>,
    clock: Arc<WallClock>,
    nodes: usize,
    net_stop: Arc<AtomicBool>,
    /// Optional metrics/dump endpoint served off this worker's epoll loop
    /// (set on exactly one worker by [`crate::NodeRuntime`]; the scrape
    /// plane adds connections to the loop, never threads to the node).
    pub(crate) scrape: Option<ScrapeSource>,
    /// The client end of this worker's session slots, in slot order
    /// (filled by [`crate::NodeRuntime`]; empty for a loop that serves no
    /// sessions). A client hello claims one by taking it.
    pub(crate) sessions: Vec<Option<SlotChannels>>,
}

/// One session slot's client end: ops in, completions out.
type SlotChannels = (Sender<Op>, Receiver<Completion>);

/// A pre-bound scrape listener plus the hub that renders its responses.
pub(crate) struct ScrapeSource {
    /// The listener (nonblocking; bound via the same `SO_REUSEADDR` path as
    /// the fabric listener).
    pub(crate) listener: TcpListener,
    /// Renders the `scrape` and `dump` views.
    pub(crate) hub: Arc<crate::scrape::MetricsHub>,
}

/// One node's fabric endpoint: the listener/acceptor thread plus shared
/// pools, clock and counters.
pub struct TcpNet {
    /// This node.
    pub me: NodeId,
    /// Cluster size.
    pub nodes: usize,
    /// Workers per node.
    pub workers: usize,
    /// The process wall clock (one time base for every node in the
    /// process).
    pub clock: Arc<WallClock>,
    /// This node's protocol counters.
    pub counters: Arc<ProtoCounters>,
    links: Arc<LinkTable>,
    stats: Arc<FabricStats>,
    peers: Arc<PeerTable>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    /// Ends the acceptor's `poll(2)` at shutdown.
    accept_stop: Arc<Waker>,
    threads: Vec<JoinHandle<()>>,
}

impl TcpNet {
    /// Bind the fabric for one node and return the per-worker IO bundles.
    ///
    /// Peer links start dialing as soon as the worker loops run and keep
    /// retrying with backoff, so launch order across the cluster does not
    /// matter.
    pub fn bind(cfg: TcpNetCfg) -> std::io::Result<(TcpNet, Vec<TcpWorkerIo>)> {
        let nodes = cfg.peers.len();
        let me = cfg.me;
        assert!(me.idx() < nodes, "me out of range");
        assert!(cfg.workers > 0);

        let listener = match cfg.listener {
            Some(l) => l,
            None => bind_reuseaddr(&cfg.peers[me.idx()])?,
        };
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let clock = Arc::new(WallClock::new());
        let counters = Arc::new(ProtoCounters::default());
        let links = Arc::new(LinkTable::new(me, nodes, cfg.workers));
        let stats = Arc::new(FabricStats::new(cfg.workers));
        let stop = Arc::new(AtomicBool::new(false));
        let byte_pool = Arc::new(Pool::<u8>::new(POOL_CAP));
        let msg_pool = Arc::new(Pool::<Msg>::new(POOL_CAP));
        let peers = Arc::new(PeerTable::new(cfg.peers));

        // Conn intake: one channel + waker per worker loop.
        let mut conn_txs = Vec::with_capacity(cfg.workers);
        let mut conn_rxs = Vec::with_capacity(cfg.workers);
        let mut wakers = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            let (tx, rx) = unbounded::<NewConn>();
            conn_txs.push(tx);
            conn_rxs.push(rx);
            wakers.push(Arc::new(Waker::new()?));
        }

        let accept_stop = Arc::new(Waker::new()?);
        let mut threads = Vec::new();
        {
            let acceptor = Acceptor {
                nodes,
                workers: cfg.workers,
                sessions_per_worker: cfg.sessions_per_worker.max(1),
                conn_txs,
                wakers: wakers.clone(),
                stop: Arc::clone(&stop),
                stop_waker: Arc::clone(&accept_stop),
                stats: Arc::clone(&stats),
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("kite-net-{me}-accept"))
                    .spawn(move || acceptor.run(listener))
                    .expect("spawn acceptor"),
            );
        }

        let ios = (0..cfg.workers)
            .zip(conn_rxs)
            .map(|(w, conn_rx)| TcpWorkerIo {
                node: me,
                worker: w,
                conn_rx,
                waker: Arc::clone(&wakers[w]),
                siblings: (wakers.iter().enumerate())
                    .filter(|&(other, _)| other != w)
                    .map(|(_, waker)| Arc::clone(waker))
                    .collect(),
                peers: Arc::clone(&peers),
                links: Arc::clone(&links),
                stats: Arc::clone(&stats),
                byte_pool: Arc::clone(&byte_pool),
                msg_pool: Arc::clone(&msg_pool),
                counters: Arc::clone(&counters),
                clock: Arc::clone(&clock),
                nodes,
                net_stop: Arc::clone(&stop),
                scrape: None,
                sessions: Vec::new(),
            })
            .collect();

        Ok((
            TcpNet {
                me,
                nodes,
                workers: cfg.workers,
                clock,
                counters,
                links,
                stats,
                peers,
                local_addr,
                stop,
                wakers,
                accept_stop,
                threads,
            },
            ios,
        ))
    }

    /// The address the fabric listener actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The per-peer link table (diagnostics; see [`LinkTable::describe`]).
    pub fn links(&self) -> &Arc<LinkTable> {
        &self.links
    }

    /// Loop-health and acceptor wake counters.
    pub fn stats(&self) -> &Arc<FabricStats> {
        &self.stats
    }

    /// The mutable dial-target table shared with every worker loop.
    pub fn peers(&self) -> &Arc<PeerTable> {
        &self.peers
    }

    /// Point `node`'s slot at a new fabric address (empty retires it) and
    /// wake every worker loop so stuck backoff ladders reset immediately
    /// instead of on their next natural wakeup. Returns `true` if the
    /// address changed.
    pub fn set_peer_addr(&self, node: NodeId, addr: impl Into<String>) -> bool {
        let changed = self.peers.set(node.idx(), addr);
        if changed {
            for w in &self.wakers {
                w.wake();
            }
        }
        changed
    }

    /// The shared stop flag (the acceptor and the worker loops watch it).
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Per-link state dump for watchdogs and shutdown reports.
    pub fn describe(&self) -> String {
        self.links.describe()
    }
}

impl Drop for TcpNet {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for w in self.wakers.iter().chain([&self.accept_stop]) {
            w.wake();
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

/// Bind a listener with `SO_REUSEADDR`: a SIGKILLed node leaves its
/// accepted sockets in TIME_WAIT on the fabric port, and a restarted
/// replica must rebind the same address *now*, not in 60 seconds —
/// otherwise "restart the node" wedges the whole recovery story. `std`'s
/// `TcpListener::bind` does not set the option, so IPv4 binds go through
/// raw libc FFI (the workspace has no libc crate); other address families
/// fall back to the std path.
pub fn bind_reuseaddr(addr: &str) -> std::io::Result<TcpListener> {
    let sa = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no addrs"))?;
    let SocketAddr::V4(v4) = sa else { return TcpListener::bind(sa) };
    use std::os::fd::FromRawFd;
    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, val: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: u16,    // network byte order
        addr: u32,    // network byte order
        zero: [u8; 8],
    }
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    // SAFETY: plain-int syscalls plus one live stack sockaddr whose exact
    // size is passed; the fd is closed on every error path before return.
    unsafe {
        let fd = socket(AF_INET, SOCK_STREAM, 0);
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let one: i32 = 1;
        setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4);
        let sin = SockaddrIn {
            family: AF_INET as u16,
            port: v4.port().to_be(),
            addr: u32::from(*v4.ip()).to_be(),
            zero: [0; 8],
        };
        if bind(fd, &sin, std::mem::size_of::<SockaddrIn>() as u32) < 0 {
            let e = std::io::Error::last_os_error();
            close(fd);
            return Err(e);
        }
        if listen(fd, 128) < 0 {
            let e = std::io::Error::last_os_error();
            close(fd);
            return Err(e);
        }
        Ok(TcpListener::from_raw_fd(fd))
    }
}

// ---------------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------------

/// The node's single accept thread: it sleeps in `poll(2)` on the
/// listener, every half-read hello and the stop eventfd — with a timeout
/// only while a handshake deadline is pending, so a node nobody connects to
/// makes zero acceptor wakes — then accepts, reads hellos (nonblocking, with
/// a per-connection deadline) and routes each connection to the owning
/// worker's loop. No per-connection threads — a connection that trickles
/// its hello costs a list entry, not a thread.
struct Acceptor {
    nodes: usize,
    workers: usize,
    sessions_per_worker: usize,
    conn_txs: Vec<Sender<NewConn>>,
    wakers: Vec<Arc<Waker>>,
    stop: Arc<AtomicBool>,
    stop_waker: Arc<Waker>,
    stats: Arc<FabricStats>,
}

/// An accepted connection whose hello is still arriving.
struct PendingHello {
    stream: TcpStream,
    hello: [u8; wire::HELLO_LEN],
    got: usize,
    deadline: Instant,
}

enum HelloStep {
    /// Partial hello, deadline not reached: keep polling the socket.
    Waiting,
    /// All `HELLO_LEN` bytes arrived.
    Complete,
    /// Deadline passed, EOF or socket error: drop the connection.
    Dead,
}

impl PendingHello {
    /// Read what has arrived of the hello (nonblocking).
    fn advance(&mut self, now: Instant) -> HelloStep {
        loop {
            if now >= self.deadline {
                return HelloStep::Dead;
            }
            match self.stream.read(&mut self.hello[self.got..]) {
                Ok(0) => return HelloStep::Dead,
                Ok(n) => {
                    self.got += n;
                    if self.got == wire::HELLO_LEN {
                        return HelloStep::Complete;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return HelloStep::Waiting,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return HelloStep::Dead,
            }
        }
    }
}

impl Acceptor {
    // kite-lint: event-loop
    fn run(self, listener: TcpListener) {
        use std::os::fd::AsRawFd;
        let mut pending: Vec<PendingHello> = Vec::new();
        let mut fds: Vec<PollFd> = Vec::new();
        // ordering: shutdown flag poll — `TcpNet::drop` stores it and then
        // writes the stop eventfd, which ends the poll below; a stale read
        // only costs one more trip round the loop.
        while !self.stop.load(Ordering::Relaxed) {
            fds.clear();
            fds.push(PollFd::readable(listener.as_raw_fd()));
            fds.push(PollFd::readable(self.stop_waker.fd()));
            fds.extend(pending.iter().map(|p| PollFd::readable(p.stream.as_raw_fd())));
            // Deadlines are at most HELLO_TIMEOUT away, so the cast is exact;
            // +1 rounds up so the wake lands after the deadline, not before.
            let now = Instant::now();
            let timeout_ms = pending
                .iter()
                .map(|p| p.deadline.saturating_duration_since(now).as_millis() as i32 + 1)
                .min()
                .unwrap_or(-1);
            if let Err(e) = sys::poll_fds(&mut fds, timeout_ms) {
                eprintln!("kite-net acceptor: poll failed: {e}");
                break;
            }
            bump(&self.stats.acceptor_wakes, 1);

            while fds[0].ready() {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        pending.push(PendingHello {
                            stream,
                            hello: [0u8; wire::HELLO_LEN],
                            got: 0,
                            deadline: Instant::now() + HELLO_TIMEOUT,
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        // kite-lint: allow(no-blocking-in-loop) — accept-error
                        // backoff (fd exhaustion leaves the listener readable)
                        // on the dedicated acceptor thread; no data path waits.
                        std::thread::sleep(Duration::from_millis(10));
                        break;
                    }
                }
            }
            let now = Instant::now();
            let mut i = 0;
            while i < pending.len() {
                match pending[i].advance(now) {
                    HelloStep::Waiting => i += 1,
                    // swap_remove moves the last entry to index i, which
                    // the next iteration examines.
                    HelloStep::Complete => {
                        let p = pending.swap_remove(i);
                        self.route_hello(p.stream, &p.hello);
                    }
                    HelloStep::Dead => drop(pending.swap_remove(i)),
                }
            }
        }
    }

    /// Decode a completed hello and hand the connection to its worker
    /// loop. Out-of-topology peers and bad handshakes are dropped silently.
    fn route_hello(&self, stream: TcpStream, hello: &[u8; wire::HELLO_LEN]) {
        let (worker, conn) = match wire::decode_hello(hello) {
            Ok(Hello::Peer { node, worker }) => {
                let worker = worker as usize;
                if node.idx() >= self.nodes || worker >= self.workers {
                    return; // out-of-topology peer: drop
                }
                (worker, NewConn::Peer { src: node, stream })
            }
            Ok(Hello::Client { slot }) => {
                // Route to the worker that owns the slot's session; an
                // out-of-range slot goes to worker 0, whose loop answers
                // `HelloErr` through the normal claim path.
                let worker = (slot as usize / self.sessions_per_worker).min(self.workers - 1);
                (worker, NewConn::Client { slot, stream })
            }
            Err(_) => return, // bad handshake: drop
        };
        let _ = self.conn_txs[worker].send(conn);
        self.wakers[worker].wake();
    }
}

// ---------------------------------------------------------------------------
// Worker event loop
// ---------------------------------------------------------------------------

/// Epoll token of the loop's waker eventfd.
const TOK_WAKER: u64 = 0;
/// Tokens `1..=nodes` are outbound peer links (dst = token - 1); inbound
/// connections start here.
fn conn_token_base(nodes: usize) -> u64 {
    1 + nodes as u64
}

/// Outbound link state machine — reconnect/backoff as loop state.
enum DialState {
    /// Waiting for the next dial attempt.
    Idle,
    /// Nonblocking connect in flight.
    Connecting,
    /// Established; ring drains through the socket.
    Connected,
}

struct PeerOut {
    state: DialState,
    stream: Option<TcpStream>,
    ring: OutRing,
    backoff: Duration,
    next_dial: Instant,
    dial_deadline: Instant,
    /// EPOLLOUT currently registered?
    want_out: bool,
    /// [`PeerTable`] generation the current dial target was read at; a
    /// mismatch in `dial_pass` means the address moved under us.
    addr_gen: u64,
}

impl PeerOut {
    fn new() -> PeerOut {
        PeerOut {
            state: DialState::Idle,
            stream: None,
            ring: OutRing::new(),
            backoff: BACKOFF_MIN,
            next_dial: Instant::now(),
            dial_deadline: Instant::now(),
            want_out: false,
            addr_gen: 0,
        }
    }
}

/// One inbound connection owned by a worker loop.
enum Conn {
    /// Peer fabric traffic.
    PeerIn { src: NodeId, stream: TcpStream, rbuf: ReadBuf },
    /// A client session.
    Client {
        slot: u32,
        stream: TcpStream,
        rbuf: ReadBuf,
        ring: OutRing,
        op_tx: Sender<Op>,
        done_rx: Receiver<Completion>,
        want_out: bool,
    },
    /// The node's metrics/dump listener — accepted scrape connections join
    /// this same slab, so the scrape plane costs epoll registrations, not
    /// threads.
    ScrapeListener { listener: TcpListener },
    /// One scrape connection: reads a one-line request (`scrape` or
    /// `dump`), writes the rendered text, closes. `done` flips once the
    /// response is queued; the conn closes when the ring drains.
    Scrape { stream: TcpStream, rbuf: Vec<u8>, ring: OutRing, want_out: bool, done: bool },
}

impl Conn {
    fn raw_fd(&self) -> std::os::fd::RawFd {
        use std::os::fd::AsRawFd;
        match self {
            Conn::PeerIn { stream, .. }
            | Conn::Client { stream, .. }
            | Conn::Scrape { stream, .. } => stream.as_raw_fd(),
            Conn::ScrapeListener { listener } => listener.as_raw_fd(),
        }
    }

    fn is_scrape_plane(&self) -> bool {
        matches!(self, Conn::ScrapeListener { .. } | Conn::Scrape { .. })
    }
}

/// [`OutRing::drain_to`], with the `writev` calls it made and the frames
/// they finished added to the draining loop's health block.
// kite-lint: no-alloc
fn drain_counted(
    ring: &mut OutRing,
    stream: &mut TcpStream,
    pool: &Pool<u8>,
    stats: &LoopStats,
) -> std::io::Result<Drain> {
    let (writevs, frames) = (ring.writevs(), ring.len());
    let outcome = ring.drain_to(stream, pool);
    bump(&stats.writevs, ring.writevs() - writevs);
    bump(&stats.writev_frames, (frames - ring.len()) as u64);
    outcome
}

/// Handle to stop and join one node's worker loops.
pub struct NodeStopHandle {
    stop: Arc<AtomicBool>,
    dump: Arc<AtomicBool>,
    /// Writes every loop's eventfd: a parked loop has no other reason to
    /// look at the flags.
    wake_all: Wake,
    handles: Vec<JoinHandle<()>>,
}

impl NodeStopHandle {
    /// Signal all workers to stop and wait for them to exit.
    pub fn stop_and_join(mut self) {
        self.halt();
    }

    /// The diagnostics request: makes every worker loop print an
    /// `Actor::describe` snapshot plus its fabric state (registered fds,
    /// ring occupancy, last-readiness timestamps) to stderr once.
    pub fn dumper(&self) -> Dumper {
        Dumper::new(Arc::clone(&self.dump), Arc::clone(&self.wake_all))
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        (self.wake_all)();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for NodeStopHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Spawn one event-loop thread per `(actor, io)` rig over the TCP fabric,
/// the I/O plane folded into the worker thread itself.
pub fn spawn_tcp_workers<A>(rigs: Vec<(A, TcpWorkerIo)>, net: &TcpNet) -> NodeStopHandle
where
    A: Actor<Msg = Msg> + 'static,
{
    assert!(rigs.len() <= net.workers, "more rigs than fabric workers");
    let stop = Arc::new(AtomicBool::new(false));
    let dump = Arc::new(AtomicBool::new(false));
    let wakers: Vec<Arc<Waker>> = rigs.iter().map(|(_, io)| Arc::clone(&io.waker)).collect();
    let mut handles = Vec::with_capacity(rigs.len());
    for (actor, io) in rigs {
        let stop = Arc::clone(&stop);
        let dump = Arc::clone(&dump);
        let name = format!("kite-tcp-{}-w{}", io.node, io.worker);
        handles.push(
            std::thread::Builder::new()
                .name(name)
                .spawn(move || match EventLoop::new(actor, io, stop, dump) {
                    Ok(mut lp) => lp.run(),
                    Err(e) => eprintln!("kite-net: event loop setup failed: {e}"),
                })
                .expect("spawn tcp worker"),
        );
    }
    let wake_all: Wake = Arc::new(move || wakers.iter().for_each(|w| w.wake()));
    NodeStopHandle { stop, dump, wake_all, handles }
}

struct EventLoop<A: Actor<Msg = Msg>> {
    actor: A,
    me: NodeId,
    worker: usize,
    nodes: usize,
    clock: Arc<WallClock>,
    counters: Arc<ProtoCounters>,
    links: Arc<LinkTable>,
    stats: Arc<FabricStats>,
    byte_pool: Arc<Pool<u8>>,
    msg_pool: Arc<Pool<Msg>>,
    peers: Arc<PeerTable>,
    /// [`PeerTable::changes`] as of the last dial pass that probed the table.
    peers_seen: u64,
    /// When the dial pass next has something to do (a backoff or a connect
    /// deadline expiring); `None` while every link is up.
    next_dial: Option<Instant>,
    conn_rx: Receiver<NewConn>,
    waker: Arc<Waker>,
    siblings: Vec<Arc<Waker>>,
    /// This loop's session slots (see [`TcpWorkerIo::sessions`]); slot
    /// `worker × sessions.len() + i` is `sessions[i]` (`sessions_for`'s
    /// numbering).
    sessions: Vec<Option<SlotChannels>>,
    poller: Poller,
    peer_out: Vec<PeerOut>,
    conns: Vec<Option<Conn>>,
    /// Self-addressed batches (loopback without a socket).
    selfq: VecDeque<Vec<Msg>>,
    out: Outbox<Msg>,
    /// Coins for injected loss ([`crate::link::LinkState::drops`]), seeded
    /// from `(node, worker)`.
    rng: SplitMix64,
    scratch: Vec<Vec<Msg>>,
    events: Vec<(u64, u32)>,
    stop: Arc<AtomicBool>,
    net_stop: Arc<AtomicBool>,
    dump: Arc<AtomicBool>,
    dumped: bool,
    /// Renders scrape/dump responses when this worker hosts the metrics
    /// endpoint (`None` on every other worker).
    scrape_hub: Option<Arc<crate::scrape::MetricsHub>>,
}

impl<A: Actor<Msg = Msg>> EventLoop<A> {
    fn new(
        actor: A,
        io: TcpWorkerIo,
        stop: Arc<AtomicBool>,
        dump: Arc<AtomicBool>,
    ) -> std::io::Result<EventLoop<A>> {
        let mut io = io;
        let poller = Poller::new()?;
        poller.add(io.waker.fd(), TOK_WAKER, EPOLLIN)?;
        let peer_out = (0..io.nodes).map(|_| PeerOut::new()).collect();
        // The scrape listener (if this worker hosts it) occupies a normal
        // conn slab slot: readiness arrives through the same epoll_wait as
        // fabric traffic — zero extra threads for the metrics plane.
        let mut conns = Vec::new();
        let mut scrape_hub = None;
        if let Some(src) = io.scrape.take() {
            use std::os::fd::AsRawFd;
            src.listener.set_nonblocking(true)?;
            let fd = src.listener.as_raw_fd();
            poller.add(fd, conn_token_base(io.nodes), EPOLLIN)?;
            conns.push(Some(Conn::ScrapeListener { listener: src.listener }));
            scrape_hub = Some(src.hub);
        }
        Ok(EventLoop {
            actor,
            me: io.node,
            worker: io.worker,
            nodes: io.nodes,
            clock: io.clock,
            counters: io.counters,
            links: io.links,
            stats: io.stats,
            byte_pool: io.byte_pool,
            msg_pool: io.msg_pool,
            peers: io.peers,
            peers_seen: 0,
            next_dial: None,
            conn_rx: io.conn_rx,
            waker: io.waker,
            siblings: io.siblings,
            sessions: std::mem::take(&mut io.sessions),
            poller,
            peer_out,
            conns,
            selfq: VecDeque::new(),
            out: Outbox::new(io.nodes),
            rng: SplitMix64::new((io.node.0 as u64) << 32 | io.worker as u64),
            scratch: Vec::with_capacity(io.nodes),
            events: Vec::with_capacity(64),
            stop,
            net_stop: io.net_stop,
            dump,
            dumped: false,
            scrape_hub,
        })
    }

    // ordering: the loop polls three advisory flags (stop, net-stop, dump
    // request); each is a standalone signal with no payload behind it, so a
    // one-iteration-stale Relaxed read is harmless by construction.
    // kite-lint: no-alloc
    // kite-lint: event-loop
    fn run(&mut self) {
        // Work known to be waiting for the next pass: conn intake or the
        // loopback queue delivered, or completions sit behind a client
        // ring that was full. Nothing else survives a pass — readiness is
        // epoll's to report, timers are the actor's to name.
        let mut pending = false;
        // What the actor's last tick asked for, and when (deadlines are
        // measured from the time the actor computed them: `now + 1` means
        // "at your next timer tick", not "before you get to park"). The
        // first pass owes the actor a tick.
        let (mut wakeup, mut ticked_at) = (Wakeup::AGAIN, 0);
        while !self.stop.load(Ordering::Relaxed) && !self.net_stop.load(Ordering::Relaxed) {
            if !self.dumped && self.dump.load(Ordering::Relaxed) {
                self.dumped = true;
                self.dump_state();
            }

            // Newly accepted connections from the acceptor.
            while let Ok(nc) = self.conn_rx.try_recv() {
                self.register_conn(nc);
                pending = true;
            }

            // Self-addressed batches queued by the previous flush; what the
            // actor answers sits in the outbox until the flush below.
            for _ in 0..64 {
                let Some(mut msgs) = self.selfq.pop_front() else { break };
                let now = self.clock.now();
                self.actor.on_envelope(self.me, &mut msgs, now, &mut self.out);
                self.out.recycle(msgs);
                pending = true;
            }

            // Socket readiness. A quiescent loop parks here until fd
            // readiness, the waker, or the earliest deadline the actor or a
            // redial holds — and a parked loop leaves the CPU to the peer
            // loops whose replies it is waiting for (decisive on few-core
            // machines).
            let timeout_ms = match pending || wakeup.more_now {
                true => 0,
                false => self.park_ms(wakeup.next_deadline, ticked_at),
            };
            self.events.clear();
            let mut events = std::mem::take(&mut self.events);
            let stats = &self.stats.loops[self.worker];
            bump(&stats.passes, 1);
            bump(&stats.epoll_waits, 1);
            match self.poller.wait(&mut events, timeout_ms) {
                Ok(0) if timeout_ms != 0 => bump(&stats.idle_ticks, 1),
                Ok(0) => {}
                Ok(_) => bump(&stats.wakes, 1),
                Err(e) => {
                    eprintln!("kite-net {} w{}: epoll_wait failed: {e}", self.me, self.worker);
                    break;
                }
            }
            for &(tok, ev) in events.iter() {
                if tok == TOK_WAKER {
                    self.waker.drain();
                } else if tok < conn_token_base(self.nodes) {
                    self.service_peer_out(NodeId((tok - 1) as u8), ev);
                } else {
                    self.service_conn((tok - conn_token_base(self.nodes)) as usize, ev);
                }
            }
            self.events = events;

            // Protocol tick: session intake, and whatever timer is due. The
            // actor says when it next needs one and whether another right
            // now would start more (a session stopped at `ops_per_tick`).
            // An op stalled behind its session's full write window is
            // neither: what opens the window is an inbound ack, a
            // readiness event, so the loop waits for it in `epoll_wait`
            // (spinning there took the CPU from the very peers it waited
            // for).
            ticked_at = self.clock.now();
            wakeup = self.actor.on_tick(ticked_at, &mut self.out);
            if wakeup.kick_siblings {
                for w in &self.siblings {
                    w.wake();
                }
            }

            // Ship what the actor produced, then push client completions.
            if !self.out.is_empty() {
                self.flush_outbox();
            }
            pending = self.pump_completions();

            // Dial pass: any disconnected peer whose backoff expired.
            self.dial_pass();
        }
        self.teardown();
    }

    /// How long a quiescent pass may block: until the actor's deadline (on
    /// the fabric clock, as of the tick at `ticked_at` that returned it) or
    /// the next redial, whichever is first, rounded up to `epoll_wait`'s
    /// milliseconds; `-1` (forever) when neither exists.
    // kite-lint: no-alloc
    fn park_ms(&self, actor_deadline: u64, ticked_at: u64) -> i32 {
        let actor = match actor_deadline {
            Wakeup::NEVER => None,
            t => Some(Duration::from_nanos(t.saturating_sub(ticked_at))),
        };
        let dial = self.next_dial.map(|t| t.saturating_duration_since(Instant::now()));
        let wait = match (actor, dial) {
            (Some(a), Some(d)) => a.min(d),
            (Some(w), None) | (None, Some(w)) => w,
            (None, None) => return -1,
        };
        wait.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
    }

    // -- outbound peers ---------------------------------------------------

    fn dial_pass(&mut self) {
        // With every link up and no address change since the last probe
        // there is nothing to dial and nothing to tear down: the pass costs
        // one atomic load, not a `PeerTable` lock per peer.
        let changes = self.peers.changes();
        let moved = changes != self.peers_seen;
        let me = self.me.idx();
        let all_up = (self.peer_out.iter().enumerate())
            .all(|(d, po)| d == me || matches!(po.state, DialState::Connected));
        if all_up && !moved {
            self.next_dial = None;
            return;
        }
        self.peers_seen = changes;
        let now = Instant::now();
        for dst in 0..self.nodes {
            if dst == me {
                continue;
            }
            // Address-change probe: if the operator repointed this slot
            // (see `TcpNet::set_peer_addr`), abandon whatever we were doing
            // against the old address and restart the backoff ladder at the
            // floor — a worker deep in backoff against a dead address must
            // not serve the *new* address its accumulated 500ms penalty.
            if moved && self.peers.generation(dst) != self.peer_out[dst].addr_gen {
                if !matches!(self.peer_out[dst].state, DialState::Idle) {
                    self.peer_fail(NodeId(dst as u8));
                }
                let po = &mut self.peer_out[dst];
                po.addr_gen = self.peers.generation(dst);
                po.backoff = BACKOFF_MIN;
                po.next_dial = now;
            }
            match self.peer_out[dst].state {
                DialState::Idle if now >= self.peer_out[dst].next_dial => self.dial(dst, now),
                DialState::Connecting if now >= self.peer_out[dst].dial_deadline => {
                    self.peer_fail(NodeId(dst as u8))
                }
                _ => {}
            }
        }
        // The loop sleeps until its actor's deadline; a link waiting out a
        // backoff or a connect attempt needs it back by then.
        self.next_dial = (self.peer_out.iter().enumerate())
            .filter(|&(d, _)| d != me)
            .filter_map(|(_, po)| match po.state {
                DialState::Idle => Some(po.next_dial),
                DialState::Connecting => Some(po.dial_deadline),
                DialState::Connected => None,
            })
            .min();
    }

    fn dial(&mut self, dst: usize, now: Instant) {
        // Re-read the table on *every* attempt — the redial cycle is the
        // recovery path for a peer that moved, so it must pick up the new
        // address (and re-resolve a hostname) rather than cache the one it
        // first booted with.
        let (target, gen) = self.peers.get(dst);
        self.peer_out[dst].addr_gen = gen;
        if target.is_empty() {
            // Retired slot: no dialing, no backoff escalation. The
            // generation probe in `dial_pass` revives it instantly when an
            // address is set again; until then, recheck at the ceiling.
            let po = &mut self.peer_out[dst];
            po.backoff = BACKOFF_MIN;
            po.next_dial = now + BACKOFF_MAX;
            self.links.link(NodeId(dst as u8), self.worker).set_retired();
            return;
        }
        let addr = match target.to_socket_addrs().ok().and_then(|mut a| a.next()) {
            Some(a) => a,
            None => {
                self.schedule_redial(dst);
                return;
            }
        };
        let stream = match sys::connect_nonblocking(&addr) {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
                // Non-IPv4 fallback: a bounded blocking dial (only hit by
                // v6 deployments; loopback and datacenter configs are v4).
                match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
                    Ok(s) => {
                        let _ = s.set_nonblocking(true);
                        s
                    }
                    Err(_) => {
                        self.schedule_redial(dst);
                        return;
                    }
                }
            }
            Err(_) => {
                self.schedule_redial(dst);
                return;
            }
        };
        let _ = stream.set_nodelay(true);
        use std::os::fd::AsRawFd;
        if self.poller.add(stream.as_raw_fd(), 1 + dst as u64, EPOLLOUT).is_err() {
            self.schedule_redial(dst);
            return;
        }
        let po = &mut self.peer_out[dst];
        po.stream = Some(stream);
        po.state = DialState::Connecting;
        po.dial_deadline = now + CONNECT_TIMEOUT;
        po.want_out = true;
    }

    fn schedule_redial(&mut self, dst: usize) {
        let po = &mut self.peer_out[dst];
        po.state = DialState::Idle;
        po.stream = None;
        po.next_dial = Instant::now() + po.backoff;
        po.backoff = (po.backoff * 2).min(BACKOFF_MAX);
        self.links.link(NodeId(dst as u8), self.worker).set_backoff();
    }

    /// Outbound link readiness: connect completion, EOF probe, ring drain.
    // kite-lint: no-alloc
    // kite-lint: event-loop
    fn service_peer_out(&mut self, dst: NodeId, ev: u32) {
        let d = dst.idx();
        if self.peer_out[d].stream.is_none() {
            return; // stale event for a conn torn down earlier this batch
        }
        if let DialState::Connecting = self.peer_out[d].state {
            if ev & (EPOLLERR | EPOLLHUP) != 0 {
                self.peer_fail(dst);
                return;
            }
            if ev & EPOLLOUT != 0 {
                let healthy =
                    sys::take_socket_error(self.peer_out[d].stream.as_ref().expect("stream"));
                if healthy.is_err() {
                    self.peer_fail(dst);
                    return;
                }
                self.peer_established(dst);
            }
            return;
        }
        // Connected.
        if ev & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0 {
            self.peer_fail(dst);
            return;
        }
        if ev & EPOLLIN != 0 {
            // Peers never send data on our outbound connection — readable
            // means EOF/RST (or junk, which also costs the connection).
            let mut probe = [0u8; 64];
            match self.peer_out[d].stream.as_ref().expect("stream").read(&mut probe) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                _ => {
                    self.peer_fail(dst);
                    return;
                }
            }
        }
        if ev & EPOLLOUT != 0 {
            self.drain_peer_ring(dst);
        }
    }

    fn peer_established(&mut self, dst: NodeId) {
        let d = dst.idx();
        {
            let po = &mut self.peer_out[d];
            po.state = DialState::Connected;
            po.backoff = BACKOFF_MIN;
            // First bytes on the wire: the peer hello (rides the ring like
            // any frame; the ring is empty at connect time).
            let mut buf = self.byte_pool.pop();
            buf.extend_from_slice(&wire::encode_hello(Hello::Peer {
                node: self.me,
                worker: self.worker as u16,
            }));
            let _ = po.ring.push(buf);
        }
        self.links.link(dst, self.worker).set_connected();
        self.drain_peer_ring(dst);
    }

    // ordering: link-stat counters and ring gauges — monitoring state read
    // by the watchdog and tests; the loop that mutates them is their only
    // writer, so Relaxed publishes numbers, not invariants.
    /// Tear down an outbound link (dial failure or death) and schedule the
    /// redial. Ring contents are lost-and-counted, like frames on a downed
    /// link.
    fn peer_fail(&mut self, dst: NodeId) {
        let d = dst.idx();
        let link = self.links.link(dst, self.worker);
        let po = &mut self.peer_out[d];
        if let Some(stream) = po.stream.take() {
            use std::os::fd::AsRawFd;
            let _ = self.poller.del(stream.as_raw_fd());
        }
        if !po.ring.is_empty() {
            link.dropped_out.fetch_add(po.ring.len() as u64, Ordering::Relaxed);
            po.ring.clear_into(&self.byte_pool);
        }
        link.ring_frames.store(0, Ordering::Relaxed);
        link.ring_bytes.store(0, Ordering::Relaxed);
        po.want_out = false;
        self.schedule_redial(d);
    }

    // ordering: link-stat counters and ring gauges — monitoring state read
    // by the watchdog and tests; the loop that mutates them is their only
    // writer, so Relaxed publishes numbers, not invariants.
    /// Push ring bytes into the socket; toggles EPOLLOUT to match what's
    /// left.
    // kite-lint: no-alloc
    // kite-lint: event-loop
    fn drain_peer_ring(&mut self, dst: NodeId) {
        let d = dst.idx();
        let link = self.links.link(dst, self.worker);
        let po = &mut self.peer_out[d];
        let Some(stream) = po.stream.as_mut() else { return };
        let before_frames = po.ring.len();
        let before_bytes = po.ring.bytes();
        let stats = &self.stats.loops[self.worker];
        let outcome = drain_counted(&mut po.ring, stream, &self.byte_pool, stats);
        let done = po.ring.len();
        if before_frames > done {
            link.frames_out.fetch_add((before_frames - done) as u64, Ordering::Relaxed);
        }
        if po.ring.bytes() < before_bytes {
            link.last_tx_ns.store(self.clock.now(), Ordering::Relaxed);
        }
        link.ring_frames.store(po.ring.len() as u64, Ordering::Relaxed);
        link.ring_bytes.store(po.ring.bytes() as u64, Ordering::Relaxed);
        match outcome {
            Ok(Drain::Emptied) => {
                if po.want_out {
                    po.want_out = false;
                    use std::os::fd::AsRawFd;
                    let _ = self.poller.modify(stream.as_raw_fd(), 1 + d as u64, EPOLLIN);
                }
            }
            Ok(Drain::Blocked) => {
                if !po.want_out {
                    po.want_out = true;
                    use std::os::fd::AsRawFd;
                    let _ =
                        self.poller.modify(stream.as_raw_fd(), 1 + d as u64, EPOLLIN | EPOLLOUT);
                }
            }
            Err(_) => self.peer_fail(dst),
        }
    }

    // ordering: link-stat counters and ring gauges — monitoring state read
    // by the watchdog and tests; the loop that mutates them is their only
    // writer, so Relaxed publishes numbers, not invariants.
    /// Encode-and-ship every outbox batch: remote batches into peer rings
    /// (shedding when a ring is full — bounded memory under backpressure;
    /// dropping when the link is down or loses the envelope to injected
    /// loss), self batches onto the loopback queue. Batch buffers recycle
    /// into the outbox; steady-state flushes allocate nothing.
    // kite-lint: no-alloc
    // kite-lint: event-loop
    fn flush_outbox(&mut self) {
        let me = self.me;
        let worker = self.worker;
        let Self { out, peer_out, selfq, byte_pool, links, counters, rng, scratch, stats, .. } =
            self;
        let stats = &stats.loops[worker];
        // The stamp the actor set at the end of its last step: every frame
        // this flush emits was composed under that membership view.
        let stamp = out.stamp();
        let mut dirty = 0u64; // bitmask of peers with newly ringed frames
        out.flush(|dst, batch| {
            counters.msgs_sent.add(batch.len() as u64);
            counters.envelopes_sent.incr();
            bump(&stats.envelope_msgs, batch.len() as u64);
            bump(&stats.envelopes, 1);
            if dst == me {
                selfq.push_back(batch);
                return;
            }
            let link = links.link(dst, worker);
            let po = &mut peer_out[dst.idx()];
            if link.drops(rng) {
                // Injected loss: the envelope never reaches the wire.
                link.dropped_out.fetch_add(1, Ordering::Relaxed);
            } else if let DialState::Connected = po.state {
                let mut buf = byte_pool.pop();
                wire::encode_frames(me, stamp, &batch, &mut buf);
                match po.ring.push(buf) {
                    Ok(()) => {
                        dirty |= 1 << dst.idx();
                        link.ring_frames.store(po.ring.len() as u64, Ordering::Relaxed);
                        link.ring_bytes.store(po.ring.bytes() as u64, Ordering::Relaxed);
                    }
                    Err(buf) => {
                        // Ring full: shed, exactly like a lossy link — the
                        // protocol's retransmission layer recovers once the
                        // peer reads again. Sender memory stays bounded.
                        link.shed_full.fetch_add(1, Ordering::Relaxed);
                        byte_pool.put(buf);
                    }
                }
            } else {
                // Link down: lossy NIC, not a buffer.
                link.dropped_out.fetch_add(1, Ordering::Relaxed);
            }
            scratch.push(batch);
        });
        for b in scratch.drain(..) {
            out.recycle(b);
        }
        for d in 0..self.nodes {
            if dirty & (1 << d) != 0 {
                self.drain_peer_ring(NodeId(d as u8));
            }
        }
    }

    // -- inbound connections ----------------------------------------------

    fn register_conn(&mut self, nc: NewConn) {
        let conn = match nc {
            NewConn::Peer { src, stream } => {
                Conn::PeerIn { src, stream, rbuf: ReadBuf::new(READ_CHUNK) }
            }
            NewConn::Client { slot, stream } => match self.claim_session(slot) {
                Ok((op_tx, done_rx)) => {
                    let mut ring = OutRing::new();
                    let mut buf = self.byte_pool.pop();
                    let session = SessionId::new(self.me, slot);
                    wire::encode_client_frame(&ClientFrame::HelloOk { session }, &mut buf);
                    let _ = ring.push(buf);
                    Conn::Client {
                        slot,
                        stream,
                        rbuf: ReadBuf::new(READ_CHUNK),
                        ring,
                        op_tx,
                        done_rx,
                        want_out: false,
                    }
                }
                Err(reason) => {
                    // Best-effort refusal; the frame is tiny, so a fresh
                    // socket buffer takes it without blocking the loop.
                    let mut stream = stream;
                    let mut buf = self.byte_pool.pop();
                    wire::encode_client_frame(&ClientFrame::HelloErr { reason }, &mut buf);
                    let _ = stream.write(&buf);
                    self.byte_pool.put(buf);
                    return;
                }
            },
        };
        // Slab insert + epoll registration.
        let idx = match self.conns.iter().position(|c| c.is_none()) {
            Some(i) => i,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let fd = conn.raw_fd();
        let tok = conn_token_base(self.nodes) + idx as u64;
        if self.poller.add(fd, tok, EPOLLIN).is_err() {
            return; // conn dropped
        }
        self.conns[idx] = Some(conn);
        // A client conn starts with HelloOk queued — push it out now.
        self.service_conn_writable(idx);
    }

    /// Take session `slot`'s channels (claim-once). The acceptor routes a
    /// slot to the loop that owns it, and anything out of range to the
    /// last loop, which refuses it here.
    fn claim_session(&mut self, slot: u32) -> Result<SlotChannels, String> {
        let first = self.worker * self.sessions.len();
        let entry = (slot as usize).checked_sub(first).and_then(|i| self.sessions.get_mut(i));
        match entry {
            Some(entry) => entry.take().ok_or_else(|| format!("{} slot {slot} taken", self.me)),
            None => Err(format!("no slot {slot} on {}", self.me)),
        }
    }

    /// Readiness on an inbound connection.
    // kite-lint: no-alloc
    // kite-lint: event-loop
    fn service_conn(&mut self, idx: usize, ev: u32) {
        if self.conns.get(idx).map_or(true, |c| c.is_none()) {
            return; // closed earlier in this event batch
        }
        if self.conns[idx].as_ref().is_some_and(|c| c.is_scrape_plane()) {
            // Scrape-plane traffic is cold by definition; it is serviced off
            // the annotated hot path (rendering a response allocates).
            self.service_scrape(idx, ev);
            return;
        }
        if ev & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(idx);
            return;
        }
        if ev & EPOLLIN != 0 && !self.service_conn_readable(idx) {
            self.close_conn(idx);
            return;
        }
        if ev & EPOLLRDHUP != 0 {
            // Half-close after we consumed what was readable: done.
            self.close_conn(idx);
            return;
        }
        if ev & EPOLLOUT != 0 {
            self.service_conn_writable(idx);
        }
    }

    /// Read-and-decode until a short read — the kernel queue is then empty,
    /// and level-triggered epoll re-reports whatever races in, so no second
    /// `read` is spent on fetching `EAGAIN` — bounded by [`READ_QUANTUM`]
    /// for fairness. Returns `false` when the connection must close.
    // kite-lint: no-alloc
    // kite-lint: event-loop
    fn service_conn_readable(&mut self, idx: usize) -> bool {
        // Take the conn out of the slab so the actor (also `&mut self`)
        // can run against decoded frames without aliasing.
        let Some(mut conn) = self.conns[idx].take() else { return true };
        let mut alive = true;
        let mut budget = READ_QUANTUM;
        'read: while budget > 0 {
            let (stream, rbuf) = match &mut conn {
                Conn::PeerIn { stream, rbuf, .. } => (stream, rbuf),
                Conn::Client { stream, rbuf, .. } => (stream, rbuf),
                // Scrape-plane conns never reach this path (routed to
                // `service_scrape` by `service_conn`).
                Conn::ScrapeListener { .. } | Conn::Scrape { .. } => {
                    break 'read;
                }
            };
            let stats = &self.stats.loops[self.worker];
            bump(&stats.reads, 1);
            let space = rbuf.space();
            let offered = space.len();
            match stream.read(space) {
                Ok(0) => {
                    alive = false;
                    break 'read;
                }
                Ok(n) => {
                    rbuf.commit(n);
                    budget = budget.saturating_sub(n);
                    if !self.decode_conn_frames(&mut conn) {
                        alive = false;
                        break 'read;
                    }
                    if n < offered {
                        break 'read;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    bump(&stats.read_eagain, 1);
                    break 'read;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    alive = false;
                    break 'read;
                }
            }
        }
        self.conns[idx] = Some(conn);
        alive
    }

    // ordering: link-stat counters and ring gauges — monitoring state read
    // by the watchdog and tests; the loop that mutates them is their only
    // writer, so Relaxed publishes numbers, not invariants.
    /// Decode every complete frame buffered on `conn`. Returns `false` on
    /// a malformed frame (the connection is charged, never the worker).
    // kite-lint: no-alloc
    // kite-lint: event-loop
    fn decode_conn_frames(&mut self, conn: &mut Conn) -> bool {
        match conn {
            Conn::PeerIn { src, stream: _, rbuf } => {
                let src = *src;
                let link = self.links.link(src, self.worker);
                link.last_rx_ns.store(self.clock.now(), Ordering::Relaxed);
                let buf = rbuf.filled();
                let mut pos = 0usize;
                let ok = loop {
                    if buf.len() - pos < 4 {
                        break true;
                    }
                    let prefix = [buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]];
                    let blen = match wire::frame_body_len(prefix) {
                        Ok(l) => l,
                        Err(_) => {
                            link.decode_errors.fetch_add(1, Ordering::Relaxed);
                            break false;
                        }
                    };
                    if buf.len() - pos < 4 + blen {
                        break true; // partial frame: wait for more bytes
                    }
                    let mut msgs = self.msg_pool.pop();
                    match wire::decode_frame_body(&buf[pos + 4..pos + 4 + blen], &mut msgs) {
                        Ok((frame_src, mepoch)) if frame_src == src => {
                            link.frames_in.fetch_add(1, Ordering::Relaxed);
                            pos += 4 + blen;
                            let now = self.clock.now();
                            self.actor.on_envelope_stamped(src, mepoch, &mut msgs, now, &mut self.out);
                            self.msg_pool.put(msgs);
                        }
                        _ => {
                            // Malformed (or mis-attributed) frame: count,
                            // recycle, close.
                            link.decode_errors.fetch_add(1, Ordering::Relaxed);
                            self.msg_pool.put(msgs);
                            break false;
                        }
                    }
                };
                rbuf.consume(pos);
                ok
            }
            Conn::Client { rbuf, op_tx, .. } => {
                let buf = rbuf.filled();
                let mut pos = 0usize;
                let ok = loop {
                    if buf.len() - pos < 4 {
                        break true;
                    }
                    let prefix = [buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]];
                    let Ok(blen) = wire::frame_body_len(prefix) else {
                        break false; // malformed client: drop the connection
                    };
                    if buf.len() - pos < 4 + blen {
                        break true;
                    }
                    match wire::decode_client_frame(&buf[pos + 4..pos + 4 + blen]) {
                        Ok(ClientFrame::Submit(op)) => {
                            pos += 4 + blen;
                            if op_tx.send(op).is_err() {
                                break false; // node shutting down
                            }
                        }
                        _ => break false, // anything else from a client is malformed
                    }
                };
                rbuf.consume(pos);
                ok
            }
            // Scrape-plane conns carry no fabric frames.
            Conn::ScrapeListener { .. } | Conn::Scrape { .. } => true,
        }
    }

    // kite-lint: no-alloc
    // kite-lint: event-loop
    fn service_conn_writable(&mut self, idx: usize) {
        let Some(Conn::Client { stream, ring, want_out, .. }) =
            self.conns.get_mut(idx).and_then(|c| c.as_mut())
        else {
            return; // peer-in conns never queue outbound bytes
        };
        use std::os::fd::AsRawFd;
        let tok = conn_token_base(self.nodes) + idx as u64;
        match drain_counted(ring, stream, &self.byte_pool, &self.stats.loops[self.worker]) {
            Ok(Drain::Emptied) => {
                if *want_out {
                    *want_out = false;
                    let _ = self.poller.modify(stream.as_raw_fd(), tok, EPOLLIN);
                }
            }
            Ok(Drain::Blocked) => {
                if !*want_out {
                    *want_out = true;
                    let _ = self.poller.modify(stream.as_raw_fd(), tok, EPOLLIN | EPOLLOUT);
                }
            }
            Err(_) => self.close_conn(idx),
        }
    }

    /// Move completed ops from every client session to its connection's
    /// ring. Batches all completions available this iteration into one
    /// frame buffer per connection (one writev downstream). Returns `true`
    /// when completions were left behind a full ring whose socket is *not*
    /// blocked — the next pass must pump again without parking (a blocked
    /// socket's `EPOLLOUT` is what wakes the loop for the rest).
    fn pump_completions(&mut self) -> bool {
        let mut left_behind = false;
        let mut moved = 0u64;
        for idx in 0..self.conns.len() {
            let Some(Conn::Client { ring, done_rx, .. }) =
                self.conns[idx].as_mut()
            else {
                continue;
            };
            if done_rx.is_empty() {
                continue;
            }
            let mut buf = self.byte_pool.pop();
            // Ring-full backpressure: completions stay in the channel (the
            // client's own in-flight window bounds what can pile up).
            while ring.len() < 64 {
                match done_rx.try_recv() {
                    Ok(c) => {
                        moved += 1;
                        wire::encode_client_frame(&ClientFrame::Completion(c), &mut buf);
                        if buf.len() >= 32 << 10 {
                            let full = std::mem::replace(&mut buf, self.byte_pool.pop());
                            if let Err(full) = ring.push(full) {
                                self.byte_pool.put(full);
                                break;
                            }
                        }
                    }
                    Err(_) => break,
                }
            }
            if buf.is_empty() {
                self.byte_pool.put(buf);
            } else if let Err(buf) = ring.push(buf) {
                self.byte_pool.put(buf);
            }
            self.service_conn_writable(idx);
            if let Some(Conn::Client { done_rx, want_out, .. }) = &self.conns[idx] {
                left_behind |= !done_rx.is_empty() && !*want_out;
            }
        }
        if moved > 0 {
            let stats = &self.stats.loops[self.worker];
            bump(&stats.pumps, 1);
            bump(&stats.completions, moved);
        }
        left_behind
    }

    // -- scrape plane ------------------------------------------------------

    /// Readiness on the metrics listener or a scrape connection. Cold path:
    /// not `no-alloc` annotated on purpose — rendering a response builds a
    /// string — but it still runs to completion on this worker's loop, so
    /// the endpoint consumes epoll budget, never a thread.
    fn service_scrape(&mut self, idx: usize, ev: u32) {
        if matches!(self.conns[idx], Some(Conn::ScrapeListener { .. })) {
            if ev & EPOLLIN == 0 {
                return;
            }
            // Take the listener out so accepted conns can be slab-inserted
            // (an insert scans for the first free slot — including `idx`).
            let Some(Conn::ScrapeListener { listener }) = self.conns[idx].take() else {
                return;
            };
            let mut accepted = Vec::new();
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(true);
                        accepted.push(stream);
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
            self.conns[idx] = Some(Conn::ScrapeListener { listener });
            for stream in accepted {
                self.register_scrape_conn(stream);
            }
            return;
        }
        if ev & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(idx);
            return;
        }
        if ev & EPOLLIN != 0 && !self.scrape_readable(idx) {
            self.close_conn(idx);
            return;
        }
        // EPOLLRDHUP is deliberately tolerated: a client may half-close
        // after sending its one-line request and still expects the
        // response; the conn closes itself once the ring drains.
        if ev & EPOLLOUT != 0 {
            self.scrape_writable(idx);
        }
    }

    fn register_scrape_conn(&mut self, stream: TcpStream) {
        let conn = Conn::Scrape {
            stream,
            rbuf: Vec::with_capacity(256),
            ring: OutRing::new(),
            want_out: false,
            done: false,
        };
        let idx = match self.conns.iter().position(|c| c.is_none()) {
            Some(i) => i,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let fd = conn.raw_fd();
        let tok = conn_token_base(self.nodes) + idx as u64;
        if self.poller.add(fd, tok, EPOLLIN).is_err() {
            return; // conn dropped
        }
        self.conns[idx] = Some(conn);
    }

    /// Read until `WouldBlock`; once a full request line is buffered,
    /// render the response and queue it. Returns `false` to close.
    fn scrape_readable(&mut self, idx: usize) -> bool {
        let Some(mut conn) = self.conns[idx].take() else { return true };
        let mut alive = true;
        let mut respond = false;
        {
            let Conn::Scrape { stream, rbuf, done, .. } = &mut conn else {
                self.conns[idx] = Some(conn);
                return true;
            };
            loop {
                let old = rbuf.len();
                if old > 1024 {
                    // A "request" that long is not one of ours.
                    alive = false;
                    break;
                }
                rbuf.resize(old + 256, 0);
                match stream.read(&mut rbuf[old..]) {
                    Ok(0) => {
                        rbuf.truncate(old);
                        // EOF with the response already queued is the
                        // normal half-close; before a full request, close.
                        if !*done {
                            alive = false;
                        }
                        break;
                    }
                    Ok(n) => rbuf.truncate(old + n),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        rbuf.truncate(old);
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                        rbuf.truncate(old);
                    }
                    Err(_) => {
                        rbuf.truncate(old);
                        alive = false;
                        break;
                    }
                }
            }
            if alive && !*done && rbuf.contains(&b'\n') {
                respond = true;
                *done = true;
            }
        }
        if respond {
            let text = {
                let Conn::Scrape { rbuf, .. } = &conn else { unreachable!() };
                let line = rbuf.split(|&b| b == b'\n').next().unwrap_or(&[]);
                self.render_scrape_response(line)
            };
            let Conn::Scrape { ring, .. } = &mut conn else { unreachable!() };
            let mut buf = self.byte_pool.pop();
            buf.extend_from_slice(text.as_bytes());
            if ring.push(buf).is_err() {
                alive = false;
            }
        }
        self.conns[idx] = Some(conn);
        if respond {
            self.scrape_writable(idx);
            // The conn may have closed itself once the ring drained.
            return self.conns[idx].is_some();
        }
        alive
    }

    /// Render the response for one request line: `dump` returns this
    /// worker's watchdog text plus the node describe lines; anything else
    /// (conventionally `scrape`) returns the `key value` metrics view.
    fn render_scrape_response(&mut self, line: &[u8]) -> String {
        let word = std::str::from_utf8(line).unwrap_or("").trim();
        let mut out = String::new();
        match &self.scrape_hub {
            None => out.push_str("err no metrics hub on this worker\n"),
            Some(hub) => {
                if word.trim_start_matches('/') == "dump" {
                    let hub = Arc::clone(hub);
                    out = self.dump_text();
                    hub.render_dump_extra(&mut out);
                } else {
                    hub.render_metrics(&mut out);
                }
            }
        }
        out
    }

    fn scrape_writable(&mut self, idx: usize) {
        let Some(Conn::Scrape { stream, ring, want_out, done, .. }) =
            self.conns.get_mut(idx).and_then(|c| c.as_mut())
        else {
            return;
        };
        use std::os::fd::AsRawFd;
        let tok = conn_token_base(self.nodes) + idx as u64;
        match drain_counted(ring, stream, &self.byte_pool, &self.stats.loops[self.worker]) {
            Ok(Drain::Emptied) => {
                if *done {
                    // One-shot protocol: response flushed, we close.
                    self.close_conn(idx);
                } else if *want_out {
                    *want_out = false;
                    let _ = self.poller.modify(stream.as_raw_fd(), tok, EPOLLIN);
                }
            }
            Ok(Drain::Blocked) => {
                if !*want_out {
                    *want_out = true;
                    let _ = self.poller.modify(stream.as_raw_fd(), tok, EPOLLIN | EPOLLOUT);
                }
            }
            Err(_) => self.close_conn(idx),
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else { return };
        let _ = self.poller.del(conn.raw_fd());
        if let Conn::Client { mut ring, .. } | Conn::Scrape { mut ring, .. } = conn {
            ring.clear_into(&self.byte_pool);
        }
        // The slot of a disconnected client stays claimed — sessions are
        // claim-once (its channels went with the connection).
    }

    // -- diagnostics / shutdown -------------------------------------------

    // ordering: link-stat counters and ring gauges — monitoring state read
    // by the watchdog and tests; the loop that mutates them is their only
    // writer, so Relaxed publishes numbers, not invariants.
    /// Watchdog dump to stderr (the flag-raised path).
    fn dump_state(&mut self) {
        let s = self.dump_text();
        eprintln!("{s}");
    }

    /// The per-worker diagnostic text: the actor's protocol snapshot plus
    /// the loop's fabric state — registered fds, per-peer ring occupancy,
    /// last-readiness timestamps. Serves both the stderr watchdog dump and
    /// the scrape endpoint's on-demand `dump` view.
    fn dump_text(&mut self) -> String {
        let now = self.clock.now();
        let mut s = format!("==== watchdog dump {} w{} (t={now}ns) ====\n", self.me, self.worker);
        self.actor.describe(&mut s);
        use std::fmt::Write as _;
        let live_conns = self.conns.iter().filter(|c| c.is_some()).count();
        let _ = writeln!(
            s,
            "fabric loop: {live_conns} inbound conns + waker registered, selfq={}",
            self.selfq.len()
        );
        let _ = writeln!(s, "{}", self.stats.describe());
        for c in self.conns.iter().flatten() {
            if let Conn::Client { slot, ring, .. } = c {
                let _ = writeln!(s, "  client s{slot}: ring={}f/{}B", ring.len(), ring.bytes());
            }
        }
        for d in 0..self.nodes {
            if d == self.me.idx() {
                continue;
            }
            let po = &self.peer_out[d];
            let link = self.links.link(NodeId(d as u8), self.worker);
            let state = match po.state {
                DialState::Idle => "Idle",
                DialState::Connecting => "Connecting",
                DialState::Connected => "Connected",
            };
            // ordering: Relaxed — diagnostic reads of the link's activity
            // timestamps; a stale value only ages the dump line.
            let _ = writeln!(
                s,
                "  out n{d}: {state} ring={}f/{}B want_out={} last_rx_ns={} last_tx_ns={}",
                po.ring.len(),
                po.ring.bytes(),
                po.want_out,
                link.last_rx_ns.load(Ordering::Relaxed),
                link.last_tx_ns.load(Ordering::Relaxed),
            );
        }
        s
    }

    fn teardown(&mut self) {
        for d in 0..self.nodes {
            let po = &mut self.peer_out[d];
            po.ring.clear_into(&self.byte_pool);
            po.stream = None;
        }
        for idx in 0..self.conns.len() {
            self.close_conn(idx);
        }
    }
}
