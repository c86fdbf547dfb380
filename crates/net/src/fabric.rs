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
//!   queues. Thread budget per node: `workers`, not `O(peers × workers)`
//!   writer/reader threads — the fabric owns no thread of its own.
//! * **Worker 0's loop accepts for the node.** The fabric listener and the
//!   metrics listener sit in worker 0's conn slab like any socket. An
//!   accepted fabric connection waits there until its hello has arrived
//!   (never read past: the peer's first frames follow on the same socket),
//!   then goes to the loop the hello names — registered in place when that
//!   is worker 0, handed over the owner's conn intake plus a wake
//!   otherwise. A hello that has not arrived within `HELLO_TIMEOUT` costs
//!   its connection, and an accept error pauses its listener for
//!   `BACKOFF_MIN`; both are deadlines the loop parks on, never sleeps.
//! * **No wake without work.** A loop goes round again without blocking
//!   only when something is known to be pending — the actor said another
//!   tick would start more right now (`Wakeup::more_now`: a session
//!   stopped at its per-tick budget), the loopback queue or the conn
//!   intake delivered, or completions are waiting behind a full client
//!   ring; otherwise the pass ends in an `epoll_wait` that blocks until
//!   the earliest deadline anyone holds — the actor's own
//!   (`Wakeup::next_deadline`: retransmission scan, release timeout,
//!   back-off, anti-entropy sweep), a peer link's redial or connect
//!   deadline, a pending hello's deadline or a paused listener's — and
//!   forever when nobody holds one.
//!   There is no timer beat: a client's submission is socket readiness
//!   like any other, and whatever needs the loop from outside (worker 0
//!   handing over a connection, a sibling's kick, a stop or dump request)
//!   writes the loop's eventfd. A readable socket costs
//!   one `read` into an already-initialized buffer — a short read means
//!   the kernel queue is empty, and level-triggered epoll re-reports what
//!   races in. Nobody connecting means zero wakes. The loop-health
//!   counters ([`crate::link::LoopStats`]) make each of these a scrapeable
//!   number.
//! * **Worker peering (§6.3).** Worker *w* of each node shares exactly one
//!   bidirectional connection with worker *w* of every other node — one
//!   socket per worker pair, like the paper's RDMA QP layout. The lower
//!   node id dials it, nonblocking, and announces itself with a
//!   [`wire::Hello::Peer`] handshake; worker 0's loop on the higher id
//!   routes it to *its* worker *w*, whose loop attaches it as the link to
//!   the dialler, closing any stale socket the link still held (a dialler
//!   that restarted redials before its old socket's EOF arrives). A peer
//!   hello from a higher id is dropped like an out-of-topology one. The
//!   dial targets are the address list the node booted with; each attempt
//!   re-resolves its address string, which is how a peer whose hostname
//!   moved is found. Reconnect-with-backoff is loop state (a deadline per
//!   link the node dials), not a thread blocked in `connect`; the accepting
//!   side waits for the redial.
//! * **Bounded outbound rings.** Each link drains through an [`OutRing`]
//!   of encoded frames via vectored writes. A peer that stops reading fills
//!   the ring and then *sheds* frames (counted on the link) — the fabric
//!   behaves like a lossy NIC under backpressure, which is exactly the
//!   failure model the protocols already recover from, so a stalled peer
//!   bounds sender memory instead of growing a writer queue. The same drop
//!   point takes injected loss: a link given a drop probability
//!   ([`LinkTable::set_drop`]) loses envelopes before they are framed — the
//!   §8.4 lossy-link fault on real sockets.
//! * **Readiness-driven reads.** Every socket a loop owns — peer links,
//!   clients, scrapes, listeners and pending hellos — sits in its conn slab:
//!   one registration, one framed read, one ring drain. Inbound bytes
//!   accumulate in a per-connection buffer; complete frames decode into
//!   pool-recycled `Vec<Msg>` buffers and feed `Actor::on_envelope`
//!   directly. A malformed frame closes that connection — never panics a
//!   worker — and is counted on the link for the watchdog.
//! * **Clients in the loop.** Client connections (session claims) are
//!   served by the owning worker's loop too, with no queue between the loop
//!   and the session: each loop keeps a flag per session slot (a slot is
//!   claimed once, no lock), a `Submit` frame goes straight into the
//!   actor's client port ([`ClientPort::submit`]), and after every tick the
//!   loop moves the actor's completions into the rings of the connections
//!   their slots map to.
//! * **Zero-allocation steady state.** Outbound: `Outbox::flush` batches
//!   encode into pooled byte buffers; the ring recycles them after the
//!   socket accepts the bytes, and drained `Vec<Msg>` batches go straight
//!   back to the outbox pool. Inbound: decode buffers circulate through
//!   the shared message pool; per-connection read buffers are retained
//!   across reads.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kite::api::{Completion, Op};
use kite::wire::{self, ClientFrame, Hello, HELLO_LEN};
use kite::{Msg, Worker};
use kite_common::rng::SplitMix64;
use kite_common::stats::ProtoCounters;
use kite_common::{NodeId, SessionId};
use kite_simnet::{Actor, Dumper, Outbox, Wake, Wakeup, WallClock};

use crate::link::{bump, FabricStats, LinkTable, LoopStats};
use crate::ring::{Drain, OutRing, Pool, ReadBuf};
use crate::sys::{self, Poller, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Reconnect backoff floor, and the pause of a listener whose accept
/// failed (fd exhaustion leaves a level-triggered listener readable).
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
/// A scrape connection's read buffer, and the bound on its request line.
const REQUEST_MAX: usize = 1024;

/// Configuration of one node's fabric endpoint.
pub struct TcpNetCfg {
    /// This node's id.
    pub me: NodeId,
    /// Fabric address of every node, indexed by node id. Fixed for the
    /// fabric's lifetime: the loops dial these strings.
    pub peers: Vec<String>,
    /// Worker threads per node (uniform across the cluster — worker
    /// peering needs both sides to agree).
    pub workers: usize,
    /// Session slots per worker — routes a client's slot claim to the
    /// worker whose loop will serve the connection, and is the number of
    /// slots each loop serves (worker `w`'s are `w × sessions_per_worker
    /// + i`, `sessions_for`'s numbering).
    pub sessions_per_worker: usize,
    /// The bound fabric listener (peers and clients connect to it).
    pub listener: TcpListener,
}

/// A freshly accepted, handshake-complete connection routed to a worker
/// loop by worker 0's.
enum NewConn {
    /// A lower id's link to us (the hello's worker picked us).
    Peer {
        /// Dialling node.
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
/// from worker 0's loop plus the shared pools, links and counters.
pub struct TcpWorkerIo {
    /// Node this IO bundle belongs to.
    pub node: NodeId,
    /// Worker index within the node.
    pub worker: usize,
    conn_rx: Receiver<NewConn>,
    waker: Arc<Waker>,
    /// Wakers of the node's other worker loops (`Wakeup::kick_siblings`).
    siblings: Vec<Arc<Waker>>,
    /// The boot-time dial targets, indexed by node id.
    peers: Arc<[String]>,
    links: Arc<LinkTable>,
    stats: Arc<FabricStats>,
    byte_pool: Arc<Pool<u8>>,
    msg_pool: Arc<Pool<Msg>>,
    counters: Arc<ProtoCounters>,
    clock: Arc<WallClock>,
    nodes: usize,
    /// The fabric listener and the routes to every loop (worker 0 only).
    accept: Option<(TcpListener, Router)>,
    /// Optional metrics/dump endpoint served off this worker's epoll loop
    /// (set on exactly one worker by [`crate::NodeRuntime`]; the scrape
    /// plane adds connections to the loop, never threads to the node).
    pub(crate) scrape: Option<ScrapeSource>,
    /// Session slots this worker's loop serves.
    sessions: usize,
}

/// What a worker loop needs from its actor besides [`Actor`]: the client
/// port of the sessions the loop serves. [`Worker`] is the production one.
pub trait ClientPort: Actor<Msg = Msg> {
    /// The connection that claimed `session` submitted `op`.
    fn submit(&mut self, session: SessionId, op: Op);
    /// The completions of submitted ops since the last call, in completion
    /// order; the loop takes them all after every call into the actor.
    fn completions(&mut self) -> impl Iterator<Item = Completion> + '_;
}

impl ClientPort for Worker {
    fn submit(&mut self, session: SessionId, op: Op) {
        Worker::submit(self, session, op);
    }

    fn completions(&mut self) -> impl Iterator<Item = Completion> + '_ {
        Worker::completions(self)
    }
}

/// Where worker 0's loop sends an accepted connection once its hello is
/// in: the loop that owns the peer's worker or the client's slot.
struct Router {
    sessions_per_worker: usize,
    /// Every loop's conn intake and waker, indexed by worker.
    intake: Vec<(Sender<NewConn>, Arc<Waker>)>,
}

impl Router {
    /// The worker a completed hello names, with the connection it gets;
    /// `None` for a bad handshake, an out-of-topology peer, or a peer that
    /// does not dial `me` — only a lower id does (all dropped silently).
    fn route(
        &self,
        me: NodeId,
        hello: &[u8; HELLO_LEN],
        stream: TcpStream,
    ) -> Option<(usize, NewConn)> {
        match wire::decode_hello(hello).ok()? {
            Hello::Peer { node, worker } => {
                let worker = worker as usize;
                let known = node < me && worker < self.intake.len();
                known.then_some((worker, NewConn::Peer { src: node, stream }))
            }
            // The worker that owns the slot's session; an out-of-range slot
            // goes to the last loop, which answers `HelloErr` through the
            // normal claim path.
            Hello::Client { slot } => {
                let worker = (slot as usize / self.sessions_per_worker).min(self.intake.len() - 1);
                Some((worker, NewConn::Client { slot, stream }))
            }
        }
    }
}

/// A pre-bound scrape listener plus the hub that renders its responses.
pub(crate) struct ScrapeSource {
    /// The listener (nonblocking; bound via the same `SO_REUSEADDR` path as
    /// the fabric listener).
    pub(crate) listener: TcpListener,
    /// Renders the `scrape` and `dump` views.
    pub(crate) hub: Arc<crate::scrape::MetricsHub>,
}

/// One node's fabric endpoint: shared pools, clock, counters and link
/// table. It owns no thread — worker 0's loop accepts for the node.
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
    local_addr: SocketAddr,
}

impl TcpNet {
    /// Bind the fabric for one node and return the per-worker IO bundles.
    ///
    /// Each worker loop dials its links to the higher node ids as soon as
    /// it runs and keeps retrying with backoff, and the lower ids dial this
    /// node, so launch order across the cluster does not matter.
    pub fn bind(cfg: TcpNetCfg) -> std::io::Result<(TcpNet, Vec<TcpWorkerIo>)> {
        let nodes = cfg.peers.len();
        let me = cfg.me;
        assert!(me.idx() < nodes, "me out of range");
        assert!(cfg.workers > 0);

        let listener = cfg.listener;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let clock = Arc::new(WallClock::new());
        let counters = Arc::new(ProtoCounters::default());
        let links = Arc::new(LinkTable::new(me, nodes, cfg.workers));
        let stats = Arc::new(FabricStats::new(cfg.workers));
        let byte_pool = Arc::new(Pool::<u8>::new(POOL_CAP));
        let msg_pool = Arc::new(Pool::<Msg>::new(POOL_CAP));
        let peers: Arc<[String]> = cfg.peers.into();

        // Conn intake: one channel + waker per worker loop; worker 0's loop
        // holds the sending ends, with the listener.
        let mut intake = Vec::with_capacity(cfg.workers);
        let mut conn_rxs = Vec::with_capacity(cfg.workers);
        let mut wakers = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            let (tx, rx) = channel::<NewConn>();
            let waker = Arc::new(Waker::new()?);
            intake.push((tx, Arc::clone(&waker)));
            conn_rxs.push(rx);
            wakers.push(waker);
        }
        let router = Router { sessions_per_worker: cfg.sessions_per_worker.max(1), intake };
        let mut accept = Some((listener, router));

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
                accept: accept.take(),
                scrape: None,
                sessions: cfg.sessions_per_worker,
            })
            .collect();

        Ok((
            TcpNet { me, nodes, workers: cfg.workers, clock, counters, links, stats, local_addr },
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

    /// Loop-health counters.
    pub fn stats(&self) -> &Arc<FabricStats> {
        &self.stats
    }
}

/// Bind a listener with `SO_REUSEADDR` ([`sys::listen_reuseaddr`]) on the
/// first IPv4 address `addr` resolves to: a restarted replica rebinds its
/// fabric port at once, through its predecessor's TIME_WAIT sockets.
pub fn bind_reuseaddr(addr: &str) -> std::io::Result<TcpListener> {
    sys::listen_reuseaddr(&sys::resolve_ipv4(addr)?)
}

// ---------------------------------------------------------------------------
// Worker event loop
// ---------------------------------------------------------------------------

/// Epoll token of the loop's waker eventfd; every other token is a conn
/// slab index.
const TOK_WAKER: u64 = u64::MAX;

/// One peer node's link as a loop sees it: worker *w* of each node shares
/// one socket with worker *w* of every other, dialled by the lower node id.
/// The socket itself is a [`Conn::Peer`] in the slab; out here is only its
/// index, and the redial ladder the dialling side climbs while it has none.
struct PeerLink {
    /// The link's conn (connecting or up); `None` while the link is down.
    conn: Option<usize>,
    /// The next rung of the backoff ladder (dialling side only).
    backoff: Duration,
    /// When the dialling side dials again while the link is down.
    next_dial: Instant,
}

/// Which of the node's listeners a [`Conn::Listener`] is.
#[derive(Clone, Copy)]
enum Listen {
    /// Peers and clients: an accepted connection starts with a hello.
    Fabric,
    /// The metrics/dump endpoint: an accepted connection is a scrape.
    Metrics,
}

/// One of a loop's session slots, as the client protocol sees it.
#[derive(Clone, Copy)]
enum Slot {
    /// Not claimed yet.
    Open,
    /// Claimed by the client connection at this conn-slab index.
    Served(usize),
    /// Its client left. Slots are claimed once: the slot stays taken, and
    /// whatever its session still completes is dropped.
    Left,
}

/// One socket in a worker loop's conn slab — every socket the loop owns.
enum Conn {
    /// The link to `node`'s worker of the same index ([`PeerLink`]): both
    /// ends read and write it. `dialing` is the connect deadline while this
    /// end's nonblocking connect is in flight.
    Peer {
        node: NodeId,
        stream: TcpStream,
        rbuf: ReadBuf,
        ring: OutRing,
        want_out: bool,
        dialing: Option<Instant>,
    },
    /// A client session. `backlog` holds its completions until the ring
    /// takes them.
    Client {
        slot: u32,
        stream: TcpStream,
        rbuf: ReadBuf,
        ring: OutRing,
        backlog: VecDeque<Completion>,
        want_out: bool,
    },
    /// One of the node's listeners, on worker 0's loop. `paused` while an
    /// accept error backs off (registered with no interest until then).
    Listener { listener: TcpListener, kind: Listen, paused: bool },
    /// An accepted fabric connection whose hello is still arriving.
    Hello { stream: TcpStream, hello: [u8; HELLO_LEN], got: usize, deadline: Instant },
    /// One scrape connection: reads a one-line request (`scrape` or
    /// `dump`), writes the rendered text, closes. `done` flips once the
    /// response is queued; the conn closes when the ring drains.
    Scrape { stream: TcpStream, rbuf: ReadBuf, ring: OutRing, want_out: bool, done: bool },
}

impl Conn {
    fn raw_fd(&self) -> std::os::fd::RawFd {
        match self {
            Conn::Peer { stream, .. }
            | Conn::Client { stream, .. }
            | Conn::Hello { stream, .. }
            | Conn::Scrape { stream, .. } => stream.as_raw_fd(),
            Conn::Listener { listener, .. } => listener.as_raw_fd(),
        }
    }

    /// A scrape whose response is queued: it stays until the ring drains,
    /// and its client may half-close meanwhile.
    fn answered(&self) -> bool {
        matches!(self, Conn::Scrape { done: true, .. })
    }
}

/// Drain `ring` into `stream`, count the `writev` calls and the frames they
/// finished on the loop's health block, and keep `EPOLLOUT` registered
/// (under `tok`) exactly while bytes remain. Every socket a loop writes
/// drains through here.
// kite-lint: no-alloc
fn drain_and_arm(
    ring: &mut OutRing,
    want_out: &mut bool,
    stream: &mut TcpStream,
    tok: u64,
    poller: &Poller,
    pool: &Pool<u8>,
    stats: &LoopStats,
) -> std::io::Result<Drain> {
    let (writevs, frames) = (ring.writevs(), ring.len());
    let outcome = ring.drain_to(stream, pool);
    bump(&stats.writevs, ring.writevs() - writevs);
    bump(&stats.writev_frames, (frames - ring.len()) as u64);
    if let Ok(drain) = outcome {
        let blocked = drain == Drain::Blocked;
        if blocked != *want_out {
            *want_out = blocked;
            let interest = if blocked { EPOLLIN | EPOLLOUT } else { EPOLLIN };
            let _ = poller.modify(stream.as_raw_fd(), tok, interest);
        }
    }
    outcome
}

/// Hand every complete length-prefixed frame buffered in `rbuf` to `f`, in
/// order, and drop what was consumed; a partial tail waits for the next
/// read. Stops at the first frame `f` refuses (`Ok(false)`) or at a
/// malformed length prefix (`Err`).
// kite-lint: no-alloc
fn for_each_frame(rbuf: &mut ReadBuf, mut f: impl FnMut(&[u8]) -> bool) -> wire::WireResult<bool> {
    let filled = rbuf.filled();
    let mut rest = filled;
    let accepted = loop {
        let Some((body, tail)) = wire::next_frame(rest)? else { break true };
        rest = tail;
        if !f(body) {
            break false;
        }
    };
    let used = filled.len() - rest.len();
    rbuf.consume(used);
    Ok(accepted)
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
    A: ClientPort + Send + 'static,
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

struct EventLoop<A: ClientPort> {
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
    /// The boot-time dial targets (see [`TcpWorkerIo::peers`]).
    peers: Arc<[String]>,
    /// When the dial pass next has something to do (a backoff expiring);
    /// `None` while no link this loop dials waits for a redial.
    next_dial: Option<Instant>,
    /// When a conn in the slab next needs the loop without readiness: a
    /// pending hello's or dial's deadline, or a paused listener's retry.
    /// May be early (a hello that completed), never late.
    conn_deadline: Option<Instant>,
    /// Worker 0's routes for accepted connections (`None` elsewhere).
    router: Option<Router>,
    conn_rx: Receiver<NewConn>,
    waker: Arc<Waker>,
    siblings: Vec<Arc<Waker>>,
    /// This loop's session slots: node-wide slot `worker × slots.len() + i`
    /// is `slots[i]` (`sessions_for`'s numbering).
    slots: Vec<Slot>,
    /// Completions dropped because their slot's client had left.
    orphaned: u64,
    poller: Poller,
    /// Indexed by node id (the `me` entry is unused).
    peer_links: Vec<PeerLink>,
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
    dump: Arc<AtomicBool>,
    dumped: bool,
    /// Renders scrape/dump responses when this worker hosts the metrics
    /// endpoint (`None` on every other worker).
    scrape_hub: Option<Arc<crate::scrape::MetricsHub>>,
}

impl<A: ClientPort> EventLoop<A> {
    fn new(
        actor: A,
        io: TcpWorkerIo,
        stop: Arc<AtomicBool>,
        dump: Arc<AtomicBool>,
    ) -> std::io::Result<EventLoop<A>> {
        let mut io = io;
        let poller = Poller::new()?;
        poller.add(io.waker.fd(), TOK_WAKER, EPOLLIN)?;
        let now = Instant::now();
        let link = || PeerLink { conn: None, backoff: BACKOFF_MIN, next_dial: now };
        let peer_links = (0..io.nodes).map(|_| link()).collect();
        let (fabric_listener, router) = io.accept.take().unzip();
        let (metrics_listener, scrape_hub) = io.scrape.take().map(|s| (s.listener, s.hub)).unzip();
        let mut lp = EventLoop {
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
            // The links to the higher ids are this loop's to dial, at once.
            next_dial: (io.node.idx() + 1 < io.nodes).then_some(now),
            conn_deadline: None,
            router,
            conn_rx: io.conn_rx,
            waker: io.waker,
            siblings: io.siblings,
            slots: vec![Slot::Open; io.sessions],
            orphaned: 0,
            poller,
            peer_links,
            conns: Vec::new(),
            selfq: VecDeque::new(),
            out: Outbox::new(io.nodes),
            rng: SplitMix64::new((io.node.0 as u64) << 32 | io.worker as u64),
            scratch: Vec::with_capacity(io.nodes),
            events: Vec::with_capacity(64),
            stop,
            dump,
            dumped: false,
            scrape_hub,
        };
        // The node's listeners (on worker 0) occupy normal conn slab slots:
        // readiness arrives through the same epoll_wait as fabric traffic —
        // accepting and the metrics plane cost no thread.
        let listeners = [(fabric_listener, Listen::Fabric), (metrics_listener, Listen::Metrics)];
        for (listener, kind) in listeners {
            if let Some(listener) = listener {
                listener.set_nonblocking(true)?;
                lp.insert_conn(Conn::Listener { listener, kind, paused: false })?;
            }
        }
        Ok(lp)
    }

    // ordering: the loop polls two advisory flags (stop, dump request);
    // each is a standalone signal with no payload behind it, so a
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
        while !self.stop.load(Ordering::Relaxed) {
            if !self.dumped && self.dump.load(Ordering::Relaxed) {
                self.dumped = true;
                self.dump_state();
            }

            // Connections worker 0's loop accepted for this one.
            while let Ok(nc) = self.conn_rx.try_recv() {
                self.register_conn(nc);
                pending = true;
            }

            // Self-addressed batches queued by the previous flush; what the
            // actor answers sits in the outbox until the flush below.
            for _ in 0..64 {
                let Some(mut msgs) = self.selfq.pop_front() else { break };
                let now = self.clock.now();
                self.actor.on_envelope(self.me, 0, &mut msgs, now, &mut self.out);
                self.out.recycle(msgs);
                pending = true;
            }

            // Socket readiness. A quiescent loop parks here until fd
            // readiness, the waker, or the earliest deadline the actor, a
            // redial or a conn holds — and a parked loop leaves the CPU to
            // the peer loops whose replies it is waiting for (decisive on
            // few-core machines).
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
                } else {
                    self.service_conn(tok as usize, ev);
                }
            }
            self.events = events;

            // Protocol tick: session intake, and whatever timer is due. The
            // actor says when it next needs one and whether another right
            // now would start more (a self-issuing session stopped at
            // `OPS_PER_TICK`; a client session's tick starts every op its
            // client has submitted, so it never asks). An op stalled behind
            // its session's full write window is neither: what opens the
            // window is an inbound ack, a
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

            // Dial pass: any link this loop dials whose backoff expired;
            // then whatever conn deadline came due.
            self.dial_pass();
            if self.conn_deadline.is_some_and(|t| Instant::now() >= t) {
                self.reap_conns();
            }
        }
        self.teardown();
    }

    /// How long a quiescent pass may block: until the actor's deadline (on
    /// the fabric clock, as of the tick at `ticked_at` that returned it),
    /// the next redial or the next conn deadline, whichever is first,
    /// rounded up to `epoll_wait`'s milliseconds; `-1` (forever) when none
    /// exists.
    // kite-lint: no-alloc
    fn park_ms(&self, actor_deadline: u64, ticked_at: u64) -> i32 {
        let actor = match actor_deadline {
            Wakeup::NEVER => None,
            t => Some(Duration::from_nanos(t.saturating_sub(ticked_at))),
        };
        let fabric = [self.next_dial, self.conn_deadline].into_iter().flatten().min();
        let fabric = fabric.map(|t| t.saturating_duration_since(Instant::now()));
        let wait = match (actor, fabric) {
            (Some(a), Some(d)) => a.min(d),
            (Some(w), None) | (None, Some(w)) => w,
            (None, None) => return -1,
        };
        wait.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
    }

    // -- peer links -------------------------------------------------------

    /// Dial every link to a higher id that is down and whose backoff has
    /// expired (the lower id of a pair dials; see [`PeerLink`]).
    fn dial_pass(&mut self) {
        let Some(due) = self.next_dial else { return };
        let now = Instant::now();
        if now < due {
            return;
        }
        let dialled = self.me.idx() + 1..self.nodes;
        for dst in dialled.clone() {
            let link = &self.peer_links[dst];
            if link.conn.is_none() && now >= link.next_dial {
                self.dial(dst, now);
            }
        }
        // The loop sleeps until its actor's deadline; a link waiting out a
        // backoff needs it back by then (a connect attempt's deadline is a
        // conn deadline).
        self.next_dial = (self.peer_links[dialled].iter())
            .filter_map(|link| link.conn.is_none().then_some(link.next_dial))
            .min();
    }

    fn dial(&mut self, dst: usize, now: Instant) {
        // Resolve on *every* attempt, never cache: the redial cycle is the
        // recovery path for a peer whose hostname now names another host.
        let addr = sys::resolve_ipv4(&self.peers[dst]);
        let Ok(stream) = addr.and_then(|a| sys::connect_nonblocking(&a)) else {
            return self.schedule_redial(dst);
        };
        let _ = stream.set_nodelay(true);
        let deadline = now + CONNECT_TIMEOUT;
        let conn = Conn::Peer {
            node: NodeId(dst as u8),
            stream,
            rbuf: ReadBuf::new(READ_CHUNK),
            ring: OutRing::new(),
            // Writability is the connect completing.
            want_out: true,
            dialing: Some(deadline),
        };
        match self.insert_conn(conn) {
            Ok(idx) => {
                self.peer_links[dst].conn = Some(idx);
                self.hold_until(deadline);
            }
            Err(_) => self.schedule_redial(dst),
        }
    }

    /// The link to `dst`, which this loop dials, is down: dial again after
    /// the next rung of the backoff ladder.
    fn schedule_redial(&mut self, dst: usize) {
        let link = &mut self.peer_links[dst];
        link.next_dial = Instant::now() + link.backoff;
        link.backoff = (link.backoff * 2).min(BACKOFF_MAX);
        let at = link.next_dial;
        self.next_dial = Some(self.next_dial.map_or(at, |t| t.min(at)));
        self.links.link(NodeId(dst as u8), self.worker).set_backoff();
    }

    /// Readiness on a link whose connect is in flight: an error costs the
    /// attempt; writability is the connection, and the hello goes first.
    fn finish_dial(&mut self, idx: usize, ev: u32) {
        if ev & (EPOLLERR | EPOLLHUP) != 0 {
            return self.close_conn(idx);
        }
        let Some(Conn::Peer { node, stream, ring, dialing, .. }) = &mut self.conns[idx] else {
            return;
        };
        if ev & EPOLLOUT == 0 {
            return;
        }
        if sys::take_socket_error(stream).is_err() {
            return self.close_conn(idx);
        }
        *dialing = None;
        let mut buf = self.byte_pool.pop();
        buf.extend_from_slice(&wire::encode_hello(Hello::Peer {
            node: self.me,
            worker: self.worker as u16,
        }));
        let _ = ring.push(buf);
        let node = *node;
        self.peer_links[node.idx()].backoff = BACKOFF_MIN;
        self.links.link(node, self.worker).set_connected();
        self.service_writable(idx);
    }

    /// The accepting side of a link: `src`'s worker dialled this loop. The
    /// new socket replaces any the link still holds — a dialler that
    /// restarted redials before its stale socket's EOF arrives here.
    fn attach_peer(&mut self, src: NodeId, stream: TcpStream) {
        let conn = Conn::Peer {
            node: src,
            stream,
            rbuf: ReadBuf::new(READ_CHUNK),
            ring: OutRing::new(),
            want_out: false,
            dialing: None,
        };
        // The stale socket closes after the insert, so the new one cannot
        // take its slab slot: worker 0 attaches mid event batch, and an
        // event for the stale socket may still be pending in it.
        let stale = self.peer_links[src.idx()].conn;
        let inserted = self.insert_conn(conn);
        if let Some(stale) = stale {
            self.close_conn(stale);
        }
        if let Ok(idx) = inserted {
            self.peer_links[src.idx()].conn = Some(idx);
            self.links.link(src, self.worker).set_connected();
        }
    }

    // ordering: link-stat counters and ring gauges — monitoring state read
    // by the watchdog and tests; the loop that mutates them is their only
    // writer, so Relaxed publishes numbers, not invariants.
    /// A link's socket closed (dial failure, death, or replaced): what its
    /// ring held is lost-and-counted, like frames on a downed link, and the
    /// row reads `Backoff` until the link is up again — redialled by the
    /// dialling side, awaited by the accepting side.
    fn link_down(&mut self, node: NodeId, mut ring: OutRing) {
        let link = self.links.link(node, self.worker);
        if !ring.is_empty() {
            link.dropped_out.fetch_add(ring.len() as u64, Ordering::Relaxed);
            ring.clear_into(&self.byte_pool);
        }
        link.ring_frames.store(0, Ordering::Relaxed);
        link.ring_bytes.store(0, Ordering::Relaxed);
        self.peer_links[node.idx()].conn = None;
        if node > self.me {
            self.schedule_redial(node.idx());
        } else {
            link.set_backoff();
        }
    }

    // ordering: link-stat counters and ring gauges — monitoring state read
    // by the watchdog and tests; the loop that mutates them is their only
    // writer, so Relaxed publishes numbers, not invariants.
    /// Encode-and-ship every outbox batch: remote batches into link rings
    /// (shedding when a ring is full — bounded memory under backpressure;
    /// dropping when the link is down or loses the envelope to injected
    /// loss), self batches onto the loopback queue. Batch buffers recycle
    /// into the outbox; steady-state flushes allocate nothing.
    // kite-lint: no-alloc
    // kite-lint: event-loop
    fn flush_outbox(&mut self) {
        let me = self.me;
        let worker = self.worker;
        let Self {
            out, peer_links, conns, selfq, byte_pool, links, counters, rng, scratch, stats, ..
        } = self;
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
            let up = match peer_links[dst.idx()].conn.and_then(|idx| conns[idx].as_mut()) {
                Some(Conn::Peer { ring, dialing: None, .. }) => Some(ring),
                _ => None,
            };
            if link.drops(rng) {
                // Injected loss: the envelope never reaches the wire.
                link.dropped_out.fetch_add(1, Ordering::Relaxed);
            } else if let Some(ring) = up {
                let mut buf = byte_pool.pop();
                wire::encode_frames(me, stamp, &batch, &mut buf);
                match ring.push(buf) {
                    Ok(()) => {
                        dirty |= 1 << dst.idx();
                        link.ring_frames.store(ring.len() as u64, Ordering::Relaxed);
                        link.ring_bytes.store(ring.bytes() as u64, Ordering::Relaxed);
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
            if let Some(idx) = self.peer_links[d].conn.filter(|_| dirty & (1 << d) != 0) {
                self.service_writable(idx);
            }
        }
    }

    // -- the conn slab -----------------------------------------------------

    fn register_conn(&mut self, nc: NewConn) {
        let (conn, claimed) = match nc {
            NewConn::Peer { src, stream } => return self.attach_peer(src, stream),
            NewConn::Client { slot, stream } => match self.claim_session(slot) {
                Ok(i) => {
                    let mut ring = OutRing::new();
                    let mut buf = self.byte_pool.pop();
                    let session = SessionId::new(self.me, slot);
                    wire::encode_client_frame(&ClientFrame::HelloOk { session }, &mut buf);
                    let _ = ring.push(buf);
                    let conn = Conn::Client {
                        slot,
                        stream,
                        rbuf: ReadBuf::new(READ_CHUNK),
                        ring,
                        backlog: VecDeque::new(),
                        want_out: false,
                    };
                    (conn, Some(i))
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
        let inserted = self.insert_conn(conn);
        if let Some(i) = claimed {
            self.slots[i] = inserted.as_ref().map_or(Slot::Left, |&idx| Slot::Served(idx));
        }
        // A client conn starts with HelloOk queued — push it out now.
        if let Ok(idx) = inserted {
            self.service_writable(idx);
        }
    }

    /// Put `conn` in the first free slab slot and register it for
    /// readability (and writability, for a dial in flight) under that
    /// slot's index — every socket a loop owns enters here. On an epoll
    /// error the conn drops.
    fn insert_conn(&mut self, conn: Conn) -> std::io::Result<usize> {
        let idx = match self.conns.iter().position(Option::is_none) {
            Some(i) => i,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let interest = match conn {
            Conn::Peer { want_out: true, .. } => EPOLLIN | EPOLLOUT,
            _ => EPOLLIN,
        };
        self.poller.add(conn.raw_fd(), idx as u64, interest)?;
        self.conns[idx] = Some(conn);
        Ok(idx)
    }

    /// The index in `slots` of node-wide session `slot`, if this loop
    /// serves it.
    fn slot_index(&self, slot: u32) -> Option<usize> {
        let first = self.worker * self.slots.len();
        (slot as usize).checked_sub(first).filter(|&i| i < self.slots.len())
    }

    /// The index of session `slot` if it is open to a claim (claim-once).
    /// Worker 0's loop routes a slot to the loop that owns it, and anything
    /// out of range to the last loop, which refuses it here.
    fn claim_session(&self, slot: u32) -> Result<usize, String> {
        match self.slot_index(slot) {
            Some(i) if matches!(self.slots[i], Slot::Open) => Ok(i),
            Some(_) => Err(format!("{} slot {slot} taken", self.me)),
            None => Err(format!("no slot {slot} on {}", self.me)),
        }
    }

    /// Readiness on a slab socket. Accepting and reading hellos are
    /// connection set-up (once per connection, on worker 0's loop); they
    /// run off the annotated hot path — accepting grows the slab.
    // kite-lint: no-alloc
    // kite-lint: event-loop
    fn service_conn(&mut self, idx: usize, ev: u32) {
        match self.conns.get(idx) {
            Some(Some(Conn::Listener { .. })) => return self.accept_all(idx),
            Some(Some(Conn::Hello { .. })) => return self.read_hello(idx),
            Some(Some(Conn::Peer { dialing: Some(_), .. })) => return self.finish_dial(idx, ev),
            Some(Some(_)) => {}
            _ => return, // closed earlier in this event batch
        }
        if ev & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(idx);
            return;
        }
        if ev & EPOLLIN != 0 && !self.service_readable(idx) {
            self.close_conn(idx);
            return;
        }
        // A half-close after we consumed what was readable ends the
        // connection — but a scrape client may half-close after its request
        // line and still expects the response; that conn closes itself once
        // the ring drains.
        let answered = self.conns[idx].as_ref().is_some_and(Conn::answered);
        if ev & EPOLLRDHUP != 0 && !answered {
            self.close_conn(idx);
            return;
        }
        if ev & EPOLLOUT != 0 || answered {
            self.service_writable(idx);
        }
    }

    /// Read and consume until a short read — the kernel queue is then
    /// empty, and level-triggered epoll re-reports whatever races in, so no
    /// second `read` is spent on fetching `EAGAIN` — bounded by
    /// [`READ_QUANTUM`] for fairness. Every connection that reads shares
    /// this path. Returns `false` when the connection must close.
    // kite-lint: no-alloc
    // kite-lint: event-loop
    fn service_readable(&mut self, idx: usize) -> bool {
        // Take the conn out of the slab so the actor (also `&mut self`)
        // can run against decoded frames without aliasing.
        let Some(mut conn) = self.conns[idx].take() else { return true };
        let mut alive = true;
        let mut budget = READ_QUANTUM;
        while alive && budget > 0 {
            let (stream, rbuf) = match &mut conn {
                Conn::Peer { stream, rbuf, .. }
                | Conn::Client { stream, rbuf, .. }
                | Conn::Scrape { stream, rbuf, .. } => (stream, rbuf),
                Conn::Listener { .. } | Conn::Hello { .. } => break,
            };
            let stats = &self.stats.loops[self.worker];
            bump(&stats.reads, 1);
            let space = rbuf.space();
            let offered = space.len();
            match stream.read(space) {
                // EOF ends the connection, an answered scrape's excepted.
                Ok(0) => {
                    alive = conn.answered();
                    break;
                }
                Ok(n) => {
                    rbuf.commit(n);
                    budget = budget.saturating_sub(n);
                    alive = self.decode_conn_frames(&mut conn);
                    if n < offered {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    bump(&stats.read_eagain, 1);
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => alive = false,
            }
        }
        self.conns[idx] = Some(conn);
        alive
    }

    // ordering: link-stat counters and ring gauges — monitoring state read
    // by the watchdog and tests; the loop that mutates them is their only
    // writer, so Relaxed publishes numbers, not invariants.
    /// Consume what is buffered on `conn`: every complete peer or client
    /// frame decodes and dispatches, a scrape's request line is answered.
    /// Returns `false` on a malformed frame (the connection is charged,
    /// never the worker).
    // kite-lint: no-alloc
    // kite-lint: event-loop
    fn decode_conn_frames(&mut self, conn: &mut Conn) -> bool {
        match conn {
            Conn::Peer { node, rbuf, .. } => {
                let src = *node;
                let link = self.links.link(src, self.worker);
                link.last_rx_ns.store(self.clock.now(), Ordering::Relaxed);
                let (actor, out, msg_pool, clock) =
                    (&mut self.actor, &mut self.out, &self.msg_pool, &self.clock);
                let framed = for_each_frame(rbuf, |body| {
                    let mut msgs = msg_pool.pop();
                    let ok = match wire::decode_frame_body(body, &mut msgs) {
                        Ok((frame_src, mepoch)) if frame_src == src => {
                            link.frames_in.fetch_add(1, Ordering::Relaxed);
                            actor.on_envelope(src, mepoch, &mut msgs, clock.now(), out);
                            true
                        }
                        _ => false,
                    };
                    msg_pool.put(msgs);
                    ok
                });
                // A malformed (or mis-attributed) frame is counted, then
                // costs the connection.
                let ok = framed == Ok(true);
                if !ok {
                    link.decode_errors.fetch_add(1, Ordering::Relaxed);
                }
                ok
            }
            // Anything but a submission from a client is malformed.
            Conn::Client { slot, rbuf, .. } => {
                let (actor, session) = (&mut self.actor, SessionId::new(self.me, *slot));
                let framed = for_each_frame(rbuf, |body| match wire::decode_client_frame(body) {
                    Ok(ClientFrame::Submit(op)) => {
                        actor.submit(session, op);
                        true
                    }
                    _ => false,
                });
                framed == Ok(true)
            }
            Conn::Scrape { rbuf, ring, done, .. } => self.scrape_request(rbuf, ring, done),
            Conn::Listener { .. } | Conn::Hello { .. } => true,
        }
    }

    // ordering: link-stat counters and ring gauges — monitoring state read
    // by the watchdog and tests; the loop that mutates them is their only
    // writer, so Relaxed publishes numbers, not invariants.
    /// Drain a link's, a client's or a scrape's ring ([`drain_and_arm`]); a
    /// link publishes its gauges, an answered scrape closes once its
    /// response is out.
    // kite-lint: no-alloc
    // kite-lint: event-loop
    fn service_writable(&mut self, idx: usize) {
        let conn = self.conns.get_mut(idx).and_then(Option::as_mut);
        let (stream, ring, want_out, answered, peer) = match conn {
            Some(Conn::Peer { node, stream, ring, want_out, dialing: None, .. }) => {
                (stream, ring, want_out, false, Some(*node))
            }
            Some(Conn::Client { stream, ring, want_out, .. }) => {
                (stream, ring, want_out, false, None)
            }
            Some(Conn::Scrape { stream, ring, want_out, done: answered, .. }) => {
                (stream, ring, want_out, *answered, None)
            }
            _ => return, // nothing else queues outbound bytes
        };
        let stats = &self.stats.loops[self.worker];
        let (frames, bytes) = (ring.len(), ring.bytes());
        let outcome =
            drain_and_arm(ring, want_out, stream, idx as u64, &self.poller, &self.byte_pool, stats);
        if let Some(node) = peer {
            let link = self.links.link(node, self.worker);
            if frames > ring.len() {
                link.frames_out.fetch_add((frames - ring.len()) as u64, Ordering::Relaxed);
            }
            if ring.bytes() < bytes {
                link.last_tx_ns.store(self.clock.now(), Ordering::Relaxed);
            }
            link.ring_frames.store(ring.len() as u64, Ordering::Relaxed);
            link.ring_bytes.store(ring.bytes() as u64, Ordering::Relaxed);
        }
        match outcome {
            Ok(Drain::Emptied) if answered => self.close_conn(idx),
            Ok(_) => {}
            Err(_) => self.close_conn(idx),
        }
    }

    /// Move the actor's completions to their clients: each goes through
    /// its slot to the serving connection's backlog (or is dropped when the
    /// slot's client has left), and every backlog drains into its ring,
    /// batched into one frame buffer per connection (one writev
    /// downstream). Returns `true` when completions were left behind a full
    /// ring whose socket is *not* blocked — the next pass must pump again
    /// without parking (a blocked socket's `EPOLLOUT` is what wakes the
    /// loop for the rest).
    // kite-lint: no-alloc
    fn pump_completions(&mut self) -> bool {
        let first = self.worker * self.slots.len();
        for c in self.actor.completions() {
            let i = (c.op_id.session.slot as usize).wrapping_sub(first);
            let conn = match self.slots.get(i) {
                Some(&Slot::Served(idx)) => self.conns[idx].as_mut(),
                _ => None,
            };
            match conn {
                Some(Conn::Client { backlog, .. }) => backlog.push_back(c),
                _ => self.orphaned += 1,
            }
        }
        let mut left_behind = false;
        let mut moved = 0u64;
        for i in 0..self.slots.len() {
            let Slot::Served(idx) = self.slots[i] else { continue };
            let Some(Conn::Client { ring, backlog, .. }) = self.conns[idx].as_mut() else {
                continue;
            };
            if backlog.is_empty() {
                continue;
            }
            let mut buf = self.byte_pool.pop();
            // Ring-full backpressure: completions stay in the backlog (the
            // client's own in-flight window bounds what can pile up).
            while ring.len() < 64 {
                let Some(c) = backlog.pop_front() else { break };
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
            if buf.is_empty() {
                self.byte_pool.put(buf);
            } else if let Err(buf) = ring.push(buf) {
                self.byte_pool.put(buf);
            }
            self.service_writable(idx);
            if let Some(Conn::Client { backlog, want_out, .. }) = &self.conns[idx] {
                left_behind |= !backlog.is_empty() && !*want_out;
            }
        }
        if moved > 0 {
            let stats = &self.stats.loops[self.worker];
            bump(&stats.pumps, 1);
            bump(&stats.completions, moved);
        }
        left_behind
    }

    // -- connection set-up (worker 0) --------------------------------------

    /// Accept everything pending on listener `idx`. A fabric connection
    /// waits in the slab for its hello; a metrics connection is a scrape
    /// from the start. An accept error other than `WouldBlock` pauses the
    /// listener for [`BACKOFF_MIN`]: fd exhaustion leaves a level-triggered
    /// listener readable, and retrying at once would spin on it.
    fn accept_all(&mut self, idx: usize) {
        loop {
            let Some(Conn::Listener { listener, kind, .. }) = &self.conns[idx] else { return };
            let kind = *kind;
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return self.pause_listener(idx),
            };
            let _ = stream.set_nonblocking(true);
            let conn = match kind {
                Listen::Fabric => {
                    let _ = stream.set_nodelay(true);
                    let deadline = Instant::now() + HELLO_TIMEOUT;
                    self.hold_until(deadline);
                    Conn::Hello { stream, hello: [0; HELLO_LEN], got: 0, deadline }
                }
                Listen::Metrics => Conn::Scrape {
                    stream,
                    rbuf: ReadBuf::new(REQUEST_MAX),
                    ring: OutRing::new(),
                    want_out: false,
                    done: false,
                },
            };
            let _ = self.insert_conn(conn);
        }
    }

    fn pause_listener(&mut self, idx: usize) {
        if let Some(Conn::Listener { listener, paused, .. }) = &mut self.conns[idx] {
            *paused = true;
            let _ = self.poller.modify(listener.as_raw_fd(), idx as u64, 0);
        }
        self.hold_until(Instant::now() + BACKOFF_MIN);
    }

    /// Make the loop come back by `t` (see `conn_deadline`).
    fn hold_until(&mut self, t: Instant) {
        self.conn_deadline = Some(self.conn_deadline.map_or(t, |d| d.min(t)));
    }

    /// Read what has arrived of an accepted connection's hello — only the
    /// bytes still missing: a peer's first frames follow its hello on the
    /// same socket, and they belong to the loop the hello names. A complete
    /// hello routes the connection; EOF or an error drops it.
    fn read_hello(&mut self, idx: usize) {
        let Some(Conn::Hello { stream, hello, got, .. }) = &mut self.conns[idx] else { return };
        while *got < HELLO_LEN {
            match stream.read(&mut hello[*got..]) {
                Ok(0) => return self.close_conn(idx),
                Ok(n) => *got += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return self.close_conn(idx),
            }
        }
        let Some(Conn::Hello { stream, hello, .. }) = self.conns[idx].take() else { return };
        let _ = self.poller.del(stream.as_raw_fd());
        let Some(router) = &self.router else { return };
        // Bad handshakes, out-of-topology peers and peer hellos from higher
        // ids are dropped silently.
        let Some((worker, nc)) = router.route(self.me, &hello, stream) else { return };
        if worker == self.worker {
            self.register_conn(nc);
        } else {
            let (intake, waker) = &router.intake[worker];
            let _ = intake.send(nc);
            waker.wake();
        }
    }

    /// A conn deadline came due: a hello that has not arrived within
    /// [`HELLO_TIMEOUT`], or a dial not connected within
    /// [`CONNECT_TIMEOUT`], costs its connection (and a dial its next
    /// rung), and every paused listener tries again — one cause (the
    /// process out of fds) pauses them alike, so they retry together: one
    /// wake per back-off, not one per listener.
    fn reap_conns(&mut self) {
        let now = Instant::now();
        self.conn_deadline = None;
        for idx in 0..self.conns.len() {
            match &mut self.conns[idx] {
                Some(Conn::Hello { deadline, .. } | Conn::Peer { dialing: Some(deadline), .. }) => {
                    let deadline = *deadline;
                    if deadline <= now {
                        self.close_conn(idx);
                    } else {
                        self.hold_until(deadline);
                    }
                }
                Some(Conn::Listener { listener, paused, .. }) if *paused => {
                    *paused = false;
                    let _ = self.poller.modify(listener.as_raw_fd(), idx as u64, EPOLLIN);
                    self.accept_all(idx);
                }
                _ => {}
            }
        }
    }

    // -- scrape plane ------------------------------------------------------

    /// A scrape connection's bytes: once a whole request line is buffered,
    /// render the response into the ring (`done`). Cold path: not
    /// `no-alloc` annotated on purpose — rendering builds a string — but it
    /// still runs to completion on this worker's loop, so the endpoint
    /// consumes epoll budget, never a thread. Returns `false` to close.
    fn scrape_request(&mut self, rbuf: &ReadBuf, ring: &mut OutRing, done: &mut bool) -> bool {
        let filled = rbuf.filled();
        match filled.iter().position(|&b| b == b'\n') {
            Some(end) if !*done => {
                *done = true;
                let text = self.render_scrape_response(&filled[..end]);
                let mut buf = self.byte_pool.pop();
                buf.extend_from_slice(text.as_bytes());
                ring.push(buf).is_ok()
            }
            // A request that long is not one of ours (nor is that much
            // chatter after one).
            _ => filled.len() < REQUEST_MAX,
        }
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

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else { return };
        let _ = self.poller.del(conn.raw_fd());
        // The slot of a disconnected client stays claimed — sessions are
        // claim-once — and what its backlog held is dropped with it.
        match conn {
            Conn::Client { slot, backlog, mut ring, .. } => {
                self.orphaned += backlog.len() as u64;
                if let Some(i) = self.slot_index(slot) {
                    self.slots[i] = Slot::Left;
                }
                ring.clear_into(&self.byte_pool);
            }
            Conn::Scrape { mut ring, .. } => ring.clear_into(&self.byte_pool),
            Conn::Peer { node, ring, .. } => self.link_down(node, ring),
            Conn::Listener { .. } | Conn::Hello { .. } => {}
        }
    }

    // -- diagnostics / shutdown -------------------------------------------

    /// Watchdog dump to stderr (the flag-raised path).
    fn dump_state(&mut self) {
        let s = self.dump_text();
        eprintln!("{s}");
    }

    /// The per-worker diagnostic text: the actor's protocol snapshot plus
    /// the loop's own state — registered conns, loop health, client ring
    /// occupancy (the links' state is [`LinkTable::describe`]'s). Serves
    /// both the stderr watchdog dump and the scrape endpoint's on-demand
    /// `dump` view.
    fn dump_text(&mut self) -> String {
        let now = self.clock.now();
        let mut s = format!("==== watchdog dump {} w{} (t={now}ns) ====\n", self.me, self.worker);
        self.actor.describe(&mut s);
        use std::fmt::Write as _;
        let live_conns = self.conns.iter().filter(|c| c.is_some()).count();
        let _ = writeln!(
            s,
            "fabric loop: {live_conns} conns + waker registered, selfq={}, \
             completions dropped for departed clients={}",
            self.selfq.len(),
            self.orphaned
        );
        s.push_str(&self.stats.describe());
        for c in self.conns.iter().flatten() {
            if let Conn::Client { slot, ring, backlog, .. } = c {
                let (frames, bytes, backlog) = (ring.len(), ring.bytes(), backlog.len());
                let _ = writeln!(s, "  client s{slot}: ring={frames}f/{bytes}B backlog={backlog}");
            }
        }
        s
    }

    fn teardown(&mut self) {
        for idx in 0..self.conns.len() {
            self.close_conn(idx);
        }
    }
}
