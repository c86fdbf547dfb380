//! The threaded runtime: one OS thread per worker — and no other thread —
//! crossbeam channels as NICs, wall-clock time. The scheduler behind the
//! in-process `Cluster`.
//!
//! A worker runs to completion — drain the NIC, `on_tick`, flush — and then
//! parks **on its own channel** until the deadline its actor returned
//! ([`Wakeup`]) or the next envelope, whichever is first. Nothing else ends
//! a park, so everything that needs the worker's attention from outside
//! arrives on that channel too: a local client that submitted an op, a stop
//! request and a watchdog dump request each send a payload-free envelope
//! through a [`WorkerWaker`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use kite_common::rng::SplitMix64;
use kite_common::stats::ProtoCounters;
use kite_common::NodeId;

use crate::actor::{Actor, Clock, Wakeup, WallClock};
use crate::faults::FaultPlane;
use crate::outbox::{Envelope, Outbox};

/// Everything a worker thread needs to talk to the fabric.
pub struct WorkerIo<P> {
    /// Node this IO bundle belongs to.
    pub node: NodeId,
    /// Worker index within the node.
    pub worker: usize,
    /// Incoming envelopes addressed to this `(node, worker)`.
    pub rx: Receiver<Envelope<P>>,
    /// Outgoing side.
    pub net: NetHandle<P>,
}

impl<P> WorkerIo<P> {
    /// A handle that ends this worker's park from any thread.
    pub fn waker(&self) -> WorkerWaker<P> {
        self.waker_of(self.worker)
    }

    fn waker_of(&self, worker: usize) -> WorkerWaker<P> {
        let tx = self.net.senders[self.node.idx()][worker].clone();
        WorkerWaker { node: self.node, tx }
    }

    /// Wakers of the node's other workers (`Wakeup::kick_siblings`).
    fn sibling_wakers(&self) -> Vec<WorkerWaker<P>> {
        let workers = self.net.senders[self.node.idx()].len();
        (0..workers).filter(|&w| w != self.worker).map(|w| self.waker_of(w)).collect()
    }
}

/// Ends one worker's park: sends a payload-free envelope to the worker's
/// own channel, which its loop takes as "go round once" and never hands to
/// the actor. Cheap when the worker is running (a queue push), a condvar
/// notify when it is parked.
pub struct WorkerWaker<P> {
    node: NodeId,
    tx: Sender<Envelope<P>>,
}

impl<P> WorkerWaker<P> {
    /// Wake the worker. A no-op once it has exited.
    pub fn wake(&self) {
        let _ = self.tx.send(Envelope { src: self.node, mepoch: 0, msgs: Vec::new() });
    }
}

/// Sending half bound to one source worker. Routes by
/// `(destination node, own worker index)` — worker peering as in §6.3.
pub struct NetHandle<P> {
    me: NodeId,
    worker: usize,
    senders: Arc<Vec<Vec<Sender<Envelope<P>>>>>,
    faults: Arc<FaultPlane>,
    rng: SplitMix64,
    counters: Arc<ProtoCounters>,
}

impl<P: Send + 'static> NetHandle<P> {
    /// Send a batch of protocol messages to `dst` as a single envelope
    /// carrying the membership-epoch stamp `mepoch` ([`NetHandle::flush`]
    /// copies the outbox's). Subject to the fault plane: may be dropped.
    /// Returns `true` if the envelope was handed to the fabric (not
    /// necessarily delivered).
    pub fn send_stamped(&mut self, dst: NodeId, mepoch: u32, msgs: Vec<P>) -> bool {
        debug_assert!(!msgs.is_empty());
        self.counters.msgs_sent.add(msgs.len() as u64);
        self.counters.envelopes_sent.incr();
        let coin = (self.rng.next_u64() >> 32) as u32;
        if self.faults.should_drop(self.me, dst, coin) {
            return false;
        }
        // Receiver may have been dropped during shutdown — not an error.
        let _ = self.senders[dst.idx()][self.worker].send(Envelope { src: self.me, mepoch, msgs });
        true
    }

    /// Flush a whole outbox through this handle, routing each batch
    /// directly to the fabric — no intermediate collection.
    pub fn flush(&mut self, out: &mut Outbox<P>) {
        let stamp = out.stamp();
        out.flush(|dst, batch| {
            self.send_stamped(dst, stamp, batch);
        });
    }
}

/// The fabric's shared state: the clock, fault plane and per-node
/// counters. The channel matrix itself lives in the [`NetHandle`]s, and the
/// net owns no thread. Build once per cluster.
pub struct ThreadedNet {
    /// Shared wall clock.
    pub clock: Arc<WallClock>,
    /// Shared fault plane (drops, sleeps).
    pub faults: Arc<FaultPlane>,
    /// Per-node message counters (envelopes/msgs sent by that node's workers).
    pub counters: Vec<Arc<ProtoCounters>>,
}

impl ThreadedNet {
    /// Create the fabric for `nodes × workers` endpoints and return the
    /// per-worker IO bundles, indexed `[node][worker]`.
    pub fn build<P>(nodes: usize, workers: usize, seed: u64) -> (Self, Vec<Vec<WorkerIo<P>>>) {
        let clock = Arc::new(WallClock::new());
        let faults = Arc::new(FaultPlane::new(nodes));
        let counters: Vec<Arc<ProtoCounters>> =
            (0..nodes).map(|_| Arc::new(ProtoCounters::default())).collect();

        let mut senders: Vec<Vec<Sender<Envelope<P>>>> = Vec::with_capacity(nodes);
        let mut receivers: Vec<Vec<Receiver<Envelope<P>>>> = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let mut stx = Vec::with_capacity(workers);
            let mut srx = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (tx, rx) = unbounded();
                stx.push(tx);
                srx.push(rx);
            }
            senders.push(stx);
            receivers.push(srx);
        }
        let senders = Arc::new(senders);

        let mut seed_rng = SplitMix64::new(seed);
        let mut ios = Vec::with_capacity(nodes);
        for (n, rxs) in receivers.into_iter().enumerate() {
            let mut per_node = Vec::with_capacity(workers);
            for (w, rx) in rxs.into_iter().enumerate() {
                per_node.push(WorkerIo {
                    node: NodeId(n as u8),
                    worker: w,
                    rx,
                    net: NetHandle {
                        me: NodeId(n as u8),
                        worker: w,
                        senders: Arc::clone(&senders),
                        faults: Arc::clone(&faults),
                        rng: seed_rng.split(),
                        counters: Arc::clone(&counters[n]),
                    },
                });
            }
            ios.push(per_node);
        }

        (ThreadedNet { clock, faults, counters }, ios)
    }
}

/// Ends the park of one or more worker loops, from any thread: what a
/// client handle, a stop request or a watchdog holds in place of a timer the
/// loops no longer have.
pub type Wake = Arc<dyn Fn() + Send + Sync>;

/// Handle to stop and join a set of spawned worker threads.
pub struct StopHandle {
    stop: Arc<AtomicBool>,
    dump: Arc<AtomicBool>,
    /// Ends every worker's park: a parked worker re-reads the flags only
    /// when something arrives on its channel.
    wake_all: Wake,
    handles: Vec<JoinHandle<()>>,
}

/// Asks every worker of a runtime for a one-time diagnostics dump: each
/// prints an [`Actor::describe`] snapshot of its own state to stderr from
/// its own thread — the watchdog's view into otherwise thread-owned
/// protocol state when a test wedges. Clonable, so a watchdog thread can
/// hold one.
#[derive(Clone)]
pub struct Dumper {
    flag: Arc<AtomicBool>,
    wake_all: Wake,
}

impl Dumper {
    /// A dumper over `flag` that wakes the loops watching it with `wake_all`.
    pub fn new(flag: Arc<AtomicBool>, wake_all: Wake) -> Dumper {
        Dumper { flag, wake_all }
    }

    /// Raise the flag and end every worker's park so it is seen now.
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
        (self.wake_all)();
    }
}

impl StopHandle {
    /// Signal all workers to stop and wait for them to exit.
    pub fn stop_and_join(mut self) {
        self.halt();
    }

    /// The diagnostics request handle (see [`Dumper`]).
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

impl Drop for StopHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Spawn one run-to-completion thread per `(actor, io)` pair.
///
/// The loop mirrors Kite's worker structure: drain incoming envelopes,
/// pump sessions/timeouts via `on_tick`, flush the outbox as opportunistic
/// batches — then park until the actor's deadline or the next envelope.
pub fn spawn_workers<A: Actor + 'static>(
    rigs: Vec<(A, WorkerIo<A::Msg>)>,
    net: &ThreadedNet,
) -> StopHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let dump = Arc::new(AtomicBool::new(false));
    let wakers: Vec<WorkerWaker<A::Msg>> = rigs.iter().map(|(_, io)| io.waker()).collect();
    let mut handles = Vec::with_capacity(rigs.len());
    for (actor, io) in rigs {
        let stop = Arc::clone(&stop);
        let dump = Arc::clone(&dump);
        let clock = Arc::clone(&net.clock);
        let faults = Arc::clone(&net.faults);
        let name = format!("kite-{}-w{}", io.node, io.worker);
        handles.push(
            std::thread::Builder::new()
                .name(name)
                .spawn(move || worker_loop(actor, io, clock, faults, stop, dump))
                .expect("spawn worker"),
        );
    }
    let wake_all: Wake = Arc::new(move || wakers.iter().for_each(WorkerWaker::wake));
    StopHandle { stop, dump, wake_all, handles }
}

fn worker_loop<A: Actor>(
    mut actor: A,
    io: WorkerIo<A::Msg>,
    clock: Arc<WallClock>,
    faults: Arc<FaultPlane>,
    stop: Arc<AtomicBool>,
    dump: Arc<AtomicBool>,
) {
    let me = io.node;
    let siblings = io.sibling_wakers();
    let mut net = io.net;
    let rx = io.rx;
    let nodes = faults.nodes();
    let mut out: Outbox<A::Msg> = Outbox::new(nodes);
    let mut dumped = false;
    // An envelope received by the park, delivered on the next pass (ahead
    // of the try_recv drain, preserving channel order).
    let mut carry: Option<Envelope<A::Msg>> = None;
    const MAX_ENVELOPES_PER_ITER: usize = 64;

    while !stop.load(Ordering::Relaxed) {
        let now = clock.now();

        // Watchdog diagnostics: dump this worker's state once when asked.
        // Checked before the fault gate so even a sleeping worker reports
        // (its buffered state is often exactly what wedged).
        if !dumped && dump.load(Ordering::Relaxed) {
            dumped = true;
            let mut s = format!("==== watchdog dump {me} w{} (t={now}ns) ====\n", io.worker);
            actor.describe(&mut s);
            eprintln!("{s}");
        }

        if faults.is_sleeping(me, now) {
            // Sleeping replica (§8.4): do not process; messages buffer up
            // (a carried envelope waits with them).
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }

        // Drain the NIC. A payload-free envelope is a wake (see
        // `WorkerWaker`): it got the loop here and has nothing to deliver.
        let mut drained = 0;
        while drained < MAX_ENVELOPES_PER_ITER {
            let Some(mut env) = carry.take().or_else(|| rx.try_recv().ok()) else { break };
            drained += 1;
            if !env.msgs.is_empty() {
                actor.on_envelope_stamped(env.src, env.mepoch, &mut env.msgs, clock.now(), &mut out);
                // The drained buffer feeds this worker's own send pool:
                // buffers circulate around the cluster instead of being
                // freed and reallocated per envelope.
                out.recycle(env.msgs);
            }
        }
        let ticked_at = clock.now();
        let wakeup = actor.on_tick(ticked_at, &mut out);
        if !out.is_empty() {
            net.flush(&mut out);
        }
        if wakeup.kick_siblings {
            siblings.iter().for_each(WorkerWaker::wake);
        }
        if wakeup.more_now || drained == MAX_ENVELOPES_PER_ITER {
            continue; // more to start, or more queued behind the batch cap
        }

        // Park on the channel itself: the sender's condvar notify wakes
        // this worker the moment an envelope lands, and the next pass
        // drains a whole batch behind it via try_recv — one wakeup
        // amortises across up to MAX_ENVELOPES_PER_ITER envelopes. The
        // actor's deadline, measured from the tick that returned it, is the
        // only timeout.
        carry = match wakeup.next_deadline {
            Wakeup::NEVER => rx.recv().ok(),
            deadline => match deadline.saturating_sub(ticked_at) {
                0 => None, // already due
                wait => rx.recv_timeout(Duration::from_nanos(wait)).ok(),
            },
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // An actor that counts pings and replies with pongs; node 0 initiates.
    #[derive(Debug)]
    struct PingPong {
        me: NodeId,
        peers: usize,
        sent: bool,
        pongs: Arc<kite_metrics::Counter>,
    }

    impl Actor for PingPong {
        type Msg = &'static str;

        fn on_envelope(
            &mut self,
            src: NodeId,
            msgs: &mut Vec<&'static str>,
            _now: u64,
            out: &mut Outbox<&'static str>,
        ) {
            for m in msgs.drain(..) {
                match m {
                    "ping" => out.send(src, "pong"),
                    "pong" => self.pongs.incr(),
                    _ => unreachable!(),
                }
            }
        }

        fn on_tick(&mut self, _now: u64, out: &mut Outbox<&'static str>) -> Wakeup {
            if self.me == NodeId(0) && !self.sent {
                self.sent = true;
                for p in 1..self.peers {
                    out.send(NodeId(p as u8), "ping");
                }
            }
            Wakeup::IDLE
        }
    }

    #[test]
    fn ping_pong_across_three_nodes() {
        let (net, ios) = ThreadedNet::build::<&'static str>(3, 1, 42);
        let pongs = Arc::new(kite_metrics::Counter::new());
        let mut rigs = Vec::new();
        for per_node in ios {
            for io in per_node {
                rigs.push((
                    PingPong { me: io.node, peers: 3, sent: false, pongs: Arc::clone(&pongs) },
                    io,
                ));
            }
        }
        let h = spawn_workers(rigs, &net);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pongs.get() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        h.stop_and_join();
        assert_eq!(pongs.get(), 2, "node 0 should get pongs from nodes 1 and 2");
    }

    /// The net owns no thread and no channel end: dropping it while every
    /// `NetHandle` is alive returns at once, and the handles keep
    /// delivering — teardown cannot depend on drop order.
    #[test]
    fn handles_outlive_the_net() {
        let (net, mut ios) = ThreadedNet::build::<&'static str>(2, 1, 13);
        let mut io0 = ios.remove(0).remove(0);
        let io1 = ios.remove(0).remove(0);
        drop(net);
        assert!(io0.net.send_stamped(NodeId(1), 0, vec!["direct"]));
        let env = io1.rx.recv_timeout(Duration::from_secs(1)).expect("delivered");
        assert_eq!((env.src, env.msgs), (NodeId(0), vec!["direct"]));
    }

    #[test]
    fn counters_track_messages() {
        let (net, ios) = ThreadedNet::build::<&'static str>(3, 1, 11);
        let pongs = Arc::new(kite_metrics::Counter::new());
        let mut rigs = Vec::new();
        for per_node in ios {
            for io in per_node {
                rigs.push((
                    PingPong { me: io.node, peers: 3, sent: false, pongs: Arc::clone(&pongs) },
                    io,
                ));
            }
        }
        let h = spawn_workers(rigs, &net);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pongs.get() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        h.stop_and_join();
        assert!(net.counters[0].msgs_sent.get() >= 2, "node 0 sent 2 pings");
    }
}
