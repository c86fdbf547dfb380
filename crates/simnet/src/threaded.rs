//! The threaded runtime: one OS thread per worker, crossbeam channels as
//! NICs, wall-clock time. This is the scheduler used for throughput
//! experiments, mirroring Kite's busy-polling RDMA workers (§6).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use kite_common::rng::SplitMix64;
use kite_common::stats::ProtoCounters;
use kite_common::NodeId;

use crate::actor::{Actor, Clock, WallClock};
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

/// Sending half bound to one source worker. Routes by
/// `(destination node, own worker index)` — worker peering as in §6.3.
pub struct NetHandle<P> {
    me: NodeId,
    worker: usize,
    senders: Arc<Vec<Vec<Sender<Envelope<P>>>>>,
    faults: Arc<FaultPlane>,
    delay_tx: Sender<Delayed<P>>,
    clock: Arc<WallClock>,
    rng: SplitMix64,
    counters: Arc<ProtoCounters>,
}

impl<P: Send + 'static> NetHandle<P> {
    /// Send a batch of protocol messages to `dst` as a single envelope.
    /// Subject to the fault plane: may be dropped or delayed. Returns `true`
    /// if the envelope was handed to the fabric (not necessarily delivered).
    pub fn send(&mut self, dst: NodeId, msgs: Vec<P>) -> bool {
        self.send_stamped(dst, 0, msgs)
    }

    /// [`NetHandle::send`] with an explicit membership-epoch stamp (what
    /// [`NetHandle::flush`] uses, copying the outbox's stamp).
    pub fn send_stamped(&mut self, dst: NodeId, mepoch: u32, msgs: Vec<P>) -> bool {
        debug_assert!(!msgs.is_empty());
        self.counters.msgs_sent.add(msgs.len() as u64);
        self.counters.envelopes_sent.incr();
        let coin = (self.rng.next_u64() >> 32) as u32;
        if self.faults.should_drop(self.me, dst, coin) {
            return false;
        }
        let env = Envelope { src: self.me, mepoch, msgs };
        let delay = self.faults.extra_delay(self.me, dst);
        if delay == 0 {
            // Receiver may have been dropped during shutdown — not an error.
            let _ = self.senders[dst.idx()][self.worker].send(env);
        } else {
            let _ = self.delay_tx.send(Delayed {
                deliver_at: self.clock.now() + delay,
                dst,
                worker: self.worker,
                env,
            });
        }
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

    /// The node this handle belongs to.
    pub fn node(&self) -> NodeId {
        self.me
    }
}

struct Delayed<P> {
    deliver_at: u64,
    dst: NodeId,
    worker: usize,
    env: Envelope<P>,
}

/// The fabric: channel matrix plus the shared clock, fault plane and
/// per-node counters. Build once per cluster.
pub struct ThreadedNet<P> {
    /// Shared wall clock.
    pub clock: Arc<WallClock>,
    /// Shared fault plane (drops, delays, sleeps).
    pub faults: Arc<FaultPlane>,
    /// Per-node message counters (envelopes/msgs sent by that node's workers).
    pub counters: Vec<Arc<ProtoCounters>>,
    delayer: Option<JoinHandle<()>>,
    /// Held only so the channel outlives the net (workers' clones come and
    /// go); dropped in `Drop`, which keeps the disconnect exit path alive
    /// as a fallback.
    _delay_tx: Sender<Delayed<P>>,
    /// Explicit delayer shutdown flag. Every live `NetHandle` holds a
    /// `delay_tx` clone, so "drop the last sender" only terminates the
    /// delayer if the workers happen to be joined before the net — an
    /// ordering this flag makes teardown independent of.
    delayer_stop: Arc<AtomicBool>,
}

impl<P: Send + 'static> ThreadedNet<P> {
    /// Create the fabric for `nodes × workers` endpoints and return the
    /// per-worker IO bundles, indexed `[node][worker]`.
    pub fn build(nodes: usize, workers: usize, seed: u64) -> (Self, Vec<Vec<WorkerIo<P>>>) {
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

        let (delay_tx, delay_rx) = unbounded::<Delayed<P>>();
        let delayer_stop = Arc::new(AtomicBool::new(false));
        let delayer = {
            let senders = Arc::clone(&senders);
            let clock = Arc::clone(&clock);
            let stop = Arc::clone(&delayer_stop);
            std::thread::Builder::new()
                .name("simnet-delayer".into())
                .spawn(move || delayer_loop(delay_rx, senders, clock, stop))
                .expect("spawn delayer")
        };

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
                        delay_tx: delay_tx.clone(),
                        clock: Arc::clone(&clock),
                        rng: seed_rng.split(),
                        counters: Arc::clone(&counters[n]),
                    },
                });
            }
            ios.push(per_node);
        }

        (ThreadedNet { clock, faults, counters, delayer: Some(delayer), _delay_tx: delay_tx, delayer_stop }, ios)
    }
}

impl<P> Drop for ThreadedNet<P> {
    fn drop(&mut self) {
        // Explicit shutdown: workers may still hold `delay_tx` clones (the
        // sender count alone cannot signal termination), so raise the stop
        // flag; the delayer notices within one poll interval, drains its
        // queue, flushes every in-heap envelope in deadline order, and
        // exits. `delay_tx` being dropped here as well keeps the old
        // disconnect path working when the net outlives every handle.
        self.delayer_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.delayer.take() {
            let _ = h.join();
        }
    }
}

/// A delayed envelope in the delayer's heap, ordered by `(deliver_at, seq)`
/// — seq breaks deadline ties FIFO. The envelope lives *in* the heap entry:
/// no side-table, no hash per delayed envelope.
struct Pending<P> {
    deliver_at: u64,
    seq: u64,
    d: Delayed<P>,
}

impl<P> PartialEq for Pending<P> {
    fn eq(&self, other: &Self) -> bool {
        (self.deliver_at, self.seq) == (other.deliver_at, other.seq)
    }
}
impl<P> Eq for Pending<P> {}
impl<P> PartialOrd for Pending<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Pending<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

fn delayer_loop<P: Send>(
    rx: Receiver<Delayed<P>>,
    senders: Arc<Vec<Vec<Sender<Envelope<P>>>>>,
    clock: Arc<WallClock>,
    stop: Arc<AtomicBool>,
) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<Pending<P>>> = BinaryHeap::new();
    let mut seq = 0u64;
    // On shutdown, whatever is still delayed is delivered immediately in
    // `(deadline, submission)` order — a deterministic flush, so teardown
    // never depends on whether workers or the net drop first.
    let flush = |heap: &mut BinaryHeap<Reverse<Pending<P>>>| {
        while let Some(Reverse(p)) = heap.pop() {
            let _ = senders[p.d.dst.idx()][p.d.worker].send(p.d.env);
        }
    };
    loop {
        if stop.load(Ordering::SeqCst) {
            // Drain everything submitted so far, then flush
            // deterministically and exit. A worker that hands an envelope
            // to the (now gone) delay path *after* this drain loses it —
            // that is a torn-down fabric dropping in-flight traffic, the
            // same as a real NIC going away; the guarantees here are "no
            // wedge" and "nothing submitted before the stop is lost", not
            // delivery during teardown. `Cluster` joins its workers before
            // dropping the net, so the race never bites there.
            while let Ok(d) = rx.try_recv() {
                heap.push(Reverse(Pending { deliver_at: d.deliver_at, seq, d }));
                seq += 1;
            }
            flush(&mut heap);
            return;
        }
        // Deliver everything due.
        let now = clock.now();
        while heap.peek().is_some_and(|Reverse(p)| p.deliver_at <= now) {
            let Some(Reverse(p)) = heap.pop() else { unreachable!() };
            let _ = senders[p.d.dst.idx()][p.d.worker].send(p.d.env);
        }
        // Cap the wait so the stop flag is observed promptly even when the
        // heap is empty or the next deadline is far out.
        let timeout = heap
            .peek()
            .map(|Reverse(p)| Duration::from_nanos(p.deliver_at.saturating_sub(clock.now())))
            .unwrap_or(Duration::from_millis(50))
            .min(Duration::from_millis(5));
        match rx.recv_timeout(timeout) {
            Ok(d) => {
                heap.push(Reverse(Pending { deliver_at: d.deliver_at, seq, d }));
                seq += 1;
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                flush(&mut heap);
                return;
            }
        }
    }
}

/// Handle to stop and join a set of spawned worker threads.
pub struct StopHandle {
    stop: Arc<AtomicBool>,
    dump: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl StopHandle {
    /// Signal all workers to stop and wait for them to exit.
    pub fn stop_and_join(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    /// The shared stop flag (lets callers embed it in their own loops).
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// The shared diagnostics flag: raising it makes every worker print an
    /// [`Actor::describe`] snapshot of its own state to stderr (once) from
    /// its own thread — the watchdog's view into otherwise thread-owned
    /// protocol state when a test wedges.
    pub fn dump_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.dump)
    }
}

impl Drop for StopHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Spawn one busy-polling thread per `(actor, io)` pair.
///
/// The loop mirrors Kite's worker structure: drain incoming envelopes,
/// pump sessions/timeouts via `on_tick`, flush the outbox as opportunistic
/// batches. Backoff kicks in only when the worker made no progress at all
/// (idle sessions, empty NIC) to stay friendly on small machines.
pub fn spawn_workers<A: Actor + 'static>(
    rigs: Vec<(A, WorkerIo<A::Msg>)>,
    net: &ThreadedNet<A::Msg>,
) -> StopHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let dump = Arc::new(AtomicBool::new(false));
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
    StopHandle { stop, dump, handles }
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
    let mut net = io.net;
    let rx = io.rx;
    let nodes = faults.nodes();
    let mut out: Outbox<A::Msg> = Outbox::new(nodes);
    let mut idle_iters: u32 = 0;
    let mut dumped = false;
    // An envelope received by the blocking idle path, delivered on the
    // next pass (ahead of the try_recv drain, preserving channel order).
    let mut carry: Option<Envelope<A::Msg>> = None;
    const MAX_ENVELOPES_PER_ITER: usize = 64;

    while !stop.load(Ordering::Relaxed) {
        let now = clock.now();

        // Watchdog diagnostics: dump this worker's state once when asked.
        // Checked before the fault gates so even crashed/sleeping workers
        // report (their buffered state is often exactly what wedged).
        if !dumped && dump.load(Ordering::Relaxed) {
            dumped = true;
            let mut s = format!("==== watchdog dump {me} w{} (t={now}ns) ====\n", io.worker);
            actor.describe(&mut s);
            eprintln!("{s}");
        }

        if faults.is_crashed(me) {
            // Crash-stop: discard traffic, do nothing, stay parked.
            carry = None;
            while rx.try_recv().is_ok() {}
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        if faults.is_sleeping(me, now) {
            // Sleeping replica (§8.4): do not process; messages buffer up
            // (a carried envelope waits with them).
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }

        let mut progress = false;
        let mut budget = MAX_ENVELOPES_PER_ITER;
        if let Some(mut env) = carry.take() {
            actor.on_envelope_stamped(env.src, env.mepoch, &mut env.msgs, clock.now(), &mut out);
            out.recycle(env.msgs);
            progress = true;
            budget -= 1;
        }
        for _ in 0..budget {
            match rx.try_recv() {
                Ok(mut env) => {
                    actor.on_envelope_stamped(env.src, env.mepoch, &mut env.msgs, clock.now(), &mut out);
                    // The drained buffer feeds this worker's own send pool:
                    // buffers circulate around the cluster instead of being
                    // freed and reallocated per envelope.
                    out.recycle(env.msgs);
                    progress = true;
                }
                Err(_) => break,
            }
        }
        if actor.on_tick(clock.now(), &mut out) {
            progress = true;
        }
        if !out.is_empty() {
            net.flush(&mut out);
            progress = true;
        }

        if progress {
            idle_iters = 0;
        } else {
            idle_iters = idle_iters.saturating_add(1);
            if idle_iters < 64 {
                std::hint::spin_loop();
            } else if idle_iters < 256 {
                std::thread::yield_now();
            } else {
                // Block on the channel itself: the sender's condvar notify
                // wakes this worker the moment an envelope lands, and the
                // next pass drains a whole batch behind it via try_recv —
                // one wakeup amortises across up to MAX_ENVELOPES_PER_ITER
                // envelopes instead of one park/unpark round-trip each.
                // The timeout bounds on_tick latency for protocol timers.
                if let Ok(env) = rx.recv_timeout(Duration::from_micros(500)) {
                    carry = Some(env);
                    idle_iters = 0;
                }
            }
        }
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

        fn on_tick(&mut self, _now: u64, out: &mut Outbox<&'static str>) -> bool {
            if self.me == NodeId(0) && !self.sent {
                self.sent = true;
                for p in 1..self.peers {
                    out.send(NodeId(p as u8), "ping");
                }
                return true;
            }
            false
        }
    }

    #[test]
    fn ping_pong_across_three_nodes() {
        let (net, ios) = ThreadedNet::<&'static str>::build(3, 1, 42);
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

    #[test]
    fn crashed_node_stays_silent() {
        let (net, ios) = ThreadedNet::<&'static str>::build(3, 1, 7);
        net.faults.crash(NodeId(2));
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
        std::thread::sleep(Duration::from_millis(100));
        h.stop_and_join();
        assert_eq!(pongs.get(), 1, "only node 1 should answer");
    }

    #[test]
    fn delayed_link_still_delivers() {
        let (net, ios) = ThreadedNet::<&'static str>::build(3, 1, 9);
        net.faults.set_delay(NodeId(0), NodeId(1), 20_000_000); // 20 ms out
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
        assert_eq!(pongs.get(), 2, "delayed ping must still arrive");
    }

    /// Teardown must not depend on drop order: here the net is dropped
    /// while every `NetHandle` (each holding a live `delay_tx` clone) still
    /// exists — the stop flag terminates the delayer anyway, and the
    /// delayed envelope still in its heap is flushed to the destination
    /// rather than lost. Before the explicit-stop fix this join hung until
    /// the handles happened to be dropped.
    #[test]
    fn delayer_stops_and_flushes_while_handles_alive() {
        let (net, mut ios) = ThreadedNet::<&'static str>::build(2, 1, 13);
        net.faults.set_delay(NodeId(0), NodeId(1), 60_000_000_000); // 60 s out
        let mut io0 = ios.remove(0).remove(0);
        let io1 = ios.remove(0).remove(0);
        let faults = Arc::clone(&net.faults);
        assert!(io0.net.send(NodeId(1), vec!["delayed"]));
        // Drop the net: the delayer must exit promptly (stop flag) and
        // deterministically flush the 60s-delayed envelope on its way out.
        drop(net);
        faults.set_delay(NodeId(0), NodeId(1), 0); // undelayed path stays usable
        let env = io1
            .rx
            .recv_timeout(Duration::from_secs(5))
            .expect("flushed envelope must be delivered, not lost");
        assert_eq!(env.src, NodeId(0));
        assert_eq!(env.msgs, vec!["delayed"]);
        // Handles still alive and usable for direct (undelayed) traffic.
        assert!(io0.net.send(NodeId(1), vec!["direct"]));
        assert_eq!(io1.rx.recv_timeout(Duration::from_secs(1)).unwrap().msgs, vec!["direct"]);
    }

    #[test]
    fn counters_track_messages() {
        let (net, ios) = ThreadedNet::<&'static str>::build(3, 1, 11);
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
