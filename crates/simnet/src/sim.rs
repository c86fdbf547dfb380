//! Deterministic discrete-event simulator.
//!
//! Runs the same [`Actor`]s as the epoll fabric, single-threaded, on
//! virtual time, with seeded latency jitter, message drops, partitions, node
//! sleeps and crashes. Given the same seed, configuration and actor
//! behaviour, the execution — including every fast/slow-path transition of
//! Kite — replays identically. The correctness test-suites are built on
//! this.
//!
//! # Events
//!
//! Everything that happens is an event ordered by `(time, seq)`, `seq`
//! being the order events were scheduled in. Three kinds exist:
//!
//! * **Deliveries** — an envelope reaching a worker — are `(time, seq,
//!   slab index)` entries of a binary heap, one push and one pop per
//!   envelope; the envelope itself waits in a slab slot that the heap entry
//!   names, so a heap sift moves 24 bytes, whatever the envelope holds.
//! * **Ticks** and **drains** (a busy worker's receive FIFO being served)
//!   are *logical* events: a worker has at most one of each pending, so
//!   each is a `(time, seq)` leaf of a tournament tree over all workers,
//!   re-keyed in place (O(log workers)) where a heap-based scheduler would
//!   pop and re-push.
//!
//! The next event is the smaller of the tree's root and the heap's top, so
//! finding it costs O(1), and a step looks it up once. Keys are unique, so
//! the order of the run is that of a single `(time, seq)` queue.
//!
//! # Ticks are deadlines
//!
//! A worker's tick chain keeps the model's cadence — one tick per
//! `TICK_NS` while the worker's virtual CPU is free, sliding past busy
//! periods and sleeps — because that cadence is part of the queueing model
//! (it is what paces a saturated worker's sessions). But a tick calls the
//! actor only when the actor asked for it: every `on_tick` returns a
//! [`crate::Wakeup`], and a tick that fires before `Wakeup::due` is a slot
//! update, not a call. Deadlines are thereby quantised up to the tick
//! grid: the call happens at the first tick at or after the deadline,
//! exactly where a polled `on_tick` would first have found the timer
//! expired, so no virtual-time figure depends on whether idle ticks are
//! delivered. A worker that changes state its node's other workers wait
//! on says so (`Wakeup::kick_siblings`) and their next tick becomes due.
//!
//! # Idle time is skipped
//!
//! While no envelope is anywhere and no worker is busy or asleep, nothing
//! can happen before the earliest tick some actor asked for, so the ticks
//! in between are not stepped through: every worker's tick moves straight
//! to where stepping would have left it (`Sim::skip_idle_ticks`, which
//! also says why ties keep their order; a unit test runs a scenario both
//! ways and compares every call). `run_until_quiesce` re-examines idleness
//! only after a step that ran an actor. Together they make an idle
//! cluster's wind-down cost its events, not its duration.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kite_common::rng::SplitMix64;
use kite_common::NodeId;

use crate::actor::Actor;
use crate::outbox::Outbox;

/// Base one-way latency, nanoseconds. The simulator's latencies are
/// loosely modeled on the paper's testbed (single-switch InfiniBand: a few
/// microseconds per hop).
pub const BASE_LATENCY_NS: u64 = 5_000;

/// Uniform extra one-way jitter, drawn from `[0, JITTER_NS)`.
pub const JITTER_NS: u64 = 2_000;

/// Worker tick cadence (sessions pumped, timeouts checked).
pub const TICK_NS: u64 = 2_000;

/// Per-worker receive-queue capacity. Like RDMA UD receive queues,
/// arrivals beyond the capacity are *dropped* (counted in
/// [`Sim::dropped`]) — this is what bounds the backlog a §8.4 sleeping
/// replica wakes up to, and it is precisely the loss mode Kite's
/// delinquency machinery exists to absorb.
pub const RECV_QUEUE_CAP: usize = 4096;

/// Simulator seed and cost model.
#[derive(Clone, Debug)]
pub struct SimCfg {
    /// RNG seed: determines jitter, drops, and therefore the whole run.
    pub seed: u64,
    /// Virtual CPU cost charged to the *receiving* worker per envelope.
    /// Together with `service_per_msg_ns` this turns the simulator into a
    /// queueing model: a worker flooded with messages (e.g. a ZAB leader)
    /// saturates, delaying everything behind it — which is exactly the
    /// bottleneck structure the paper's throughput figures measure.
    pub service_per_envelope_ns: u64,
    /// Additional virtual CPU cost per message inside an envelope. Batching
    /// (§6.3) amortizes the envelope cost but not this one.
    pub service_per_msg_ns: u64,
    /// Virtual CPU cost charged to the *sender* per envelope posted — the
    /// NIC-doorbell half of the model. Issue rates throttle naturally: a
    /// worker blasting broadcasts becomes busy and its next tick (hence its
    /// sessions' next ops) slides.
    pub send_per_envelope_ns: u64,
    /// Additional sender-side cost per message (inlining/DMA per WQE).
    pub send_per_msg_ns: u64,
    /// Maximum protocol messages per network envelope; `0` means unbounded
    /// (§6.3's opportunistic batching, the default). `1` disables batching
    /// entirely — every message pays its own envelope service/send cost.
    /// This is the paper's §6.3 batching ablation, measured by
    /// `ablation_opts`.
    pub max_batch: usize,
}

impl Default for SimCfg {
    fn default() -> Self {
        SimCfg {
            seed: 1,
            service_per_envelope_ns: 200,
            service_per_msg_ns: 100,
            send_per_envelope_ns: 150,
            send_per_msg_ns: 40,
            max_batch: 0,
        }
    }
}

/// An envelope in flight on the fabric, parked in `Sim::slab` until its
/// delivery comes up.
struct Event<P> {
    dst: NodeId,
    worker: usize,
    src: NodeId,
    mepoch: u32,
    msgs: Vec<P>,
    /// Already counted in `Sim::held`: the envelope arrived while `dst`
    /// slept and was parked until its wake-up time.
    held: bool,
}

/// A pending delivery: when, in which order, and the slab slot of its
/// envelope. `(time, seq)` is unique, so `at` never decides the order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Due {
    time: u64,
    seq: u64,
    at: u32,
}

/// `(time, seq)` of a per-worker logical event packed as `time << 64 | seq`
/// (one compare orders two events); [`UNSCHEDULED`] when the worker has
/// none of that kind pending.
type Key = u128;
const UNSCHEDULED: Key = u128::MAX;

#[inline]
fn key_of(time: u64, seq: u64) -> Key {
    (time as u128) << 64 | seq as u128
}

/// The leaf of `Sim::timers` holding the tick of the worker at `slot`.
#[inline]
fn tick_leaf(slot: usize) -> usize {
    2 * slot
}

/// The leaf of `Sim::timers` holding the drain of the worker at `slot`.
#[inline]
fn drain_leaf(slot: usize) -> usize {
    2 * slot + 1
}

/// A tournament (winner) tree over a fixed set of keyed leaves: the
/// smallest key in O(1), a re-key in O(log leaves).
///
/// Laid out as an implicit binary tree over `2 × leaves` nodes: node `i`'s
/// children are `2i` and `2i + 1`, node `leaves + j` is leaf `j`, and the
/// root is node 1 — for any leaf count, since every node below `leaves` has
/// two children and every leaf reaches the root. Each node holds the index
/// of the leaf with the smallest key beneath it, not the key: the keys live
/// once, in `keys`.
struct Tournament {
    keys: Vec<Key>,
    /// `win[i]`: the winning leaf of node `i` (`win[0]` is unused; a leaf
    /// node is its own winner).
    win: Vec<u32>,
}

impl Tournament {
    /// `leaves` leaves (at least two), all [`UNSCHEDULED`].
    fn new(leaves: usize) -> Self {
        assert!(leaves >= 2 && leaves <= u32::MAX as usize / 2, "tournament size");
        let mut win = vec![0; 2 * leaves];
        for (node, w) in win.iter_mut().enumerate().skip(leaves) {
            *w = (node - leaves) as u32;
        }
        for node in (1..leaves).rev() {
            win[node] = win[2 * node];
        }
        Tournament { keys: vec![UNSCHEDULED; leaves], win }
    }

    #[inline]
    fn key(&self, leaf: usize) -> Key {
        self.keys[leaf]
    }

    /// The leaf with the smallest key, and that key.
    #[inline]
    fn min(&self) -> (usize, Key) {
        let leaf = self.win[1] as usize;
        (leaf, self.keys[leaf])
    }

    /// Re-key `leaf` and replay its matches up the tree. Only the nodes
    /// whose winner changed or is `leaf` can see a different key; above the
    /// first node with the same winner as before, other than `leaf`,
    /// nothing does.
    #[inline]
    fn set(&mut self, leaf: usize, key: Key) {
        self.keys[leaf] = key;
        let mut node = (self.keys.len() + leaf) / 2;
        while node > 0 {
            let (l, r) = (self.win[2 * node], self.win[2 * node + 1]);
            let w = if self.keys[l as usize] < self.keys[r as usize] { l } else { r };
            if w == self.win[node] && w as usize != leaf {
                break;
            }
            self.win[node] = w;
            node /= 2;
        }
    }
}

/// Which pending event is next in `(time, seq)` order.
#[derive(Clone, Copy)]
enum Next {
    Deliver,
    Tick(usize),
    Drain(usize),
}

/// What a step did, for quiescence detection: only a step that ran an actor
/// or lost an envelope can have changed what `run_until_quiesce` looks at.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    /// A tick that was not due, or an event deferred behind a busy or
    /// sleeping worker: nothing observable changed.
    Blind,
    /// An actor ran or an envelope was dropped.
    Acted,
}

/// Per-directed-link fault state (single-threaded: plain fields).
#[derive(Clone, Copy, Default)]
struct Link {
    drop_prob: f64,
    extra_delay_ns: u64,
}

/// The deterministic executor.
pub struct Sim<A: Actor> {
    /// Actors indexed `[node][worker]`.
    pub actors: Vec<Vec<A>>,
    cfg: SimCfg,
    now: u64,
    seq: u64,
    /// Envelope deliveries, by `(time, seq)`.
    queue: BinaryHeap<Reverse<Due>>,
    /// The envelopes `queue` names, by [`Due::at`]; `None` marks a slot on
    /// `free`. One slot per pending delivery, so the slab is never longer
    /// than the heap has been.
    slab: Vec<Option<Event<A::Msg>>>,
    free: Vec<u32>,
    /// Each worker's next tick (leaf `2 × slot`) and receive-FIFO drain
    /// (leaf `2 × slot + 1`) — at most one of each pending per worker, so a
    /// leaf, not a heap entry. Keyed like any other event: a leaf is re-keyed
    /// (consuming a `seq`) exactly where a one-queue scheduler would re-push
    /// the event, so the `(time, seq)` order of the whole run is that one.
    timers: Tournament,
    /// When each worker's `on_tick` is next due ([`crate::Wakeup::due`] of its
    /// last call). A tick that fires earlier is not delivered to the actor:
    /// by the contract it would have done nothing.
    due: Vec<u64>,
    deliveries_pending: usize,
    rng: SplitMix64,
    links: Vec<Link>,
    crashed: Vec<bool>,
    wake_at: Vec<u64>,
    /// Virtual CPU availability per `(node, worker)` — the queueing model's
    /// server clock: a worker busy until `t` defers deliveries and ticks.
    busy_until: Vec<u64>,
    /// Per-worker receive FIFO: envelopes that arrived while busy. One
    /// drain at a time serves each FIFO (O(1) events per envelope —
    /// re-enqueueing every waiter would be quadratic under load).
    waiting: Vec<std::collections::VecDeque<(NodeId, u32, Vec<A::Msg>)>>,
    /// Envelopes parked in `queue` until a sleeping node's wake-up, per
    /// worker. Bounded at arrival by `RECV_QUEUE_CAP + 1` — the most a
    /// waking worker can accept (one served at once, a full FIFO behind it).
    held: Vec<usize>,
    workers: usize,
    nodes: usize,
    scratch: Outbox<A::Msg>,
    /// Total envelopes delivered (for tests asserting traffic happened).
    pub delivered: u64,
    /// Total envelopes dropped by fault injection.
    pub dropped: u64,
    /// Pushes onto the event heap (deliveries, and re-parks of envelopes
    /// held for a sleeping node). Ticks and drains never touch the heap.
    pub heap_pushes: u64,
    /// `(messages, envelopes)` posted per source node since the last
    /// [`Sim::take_sent`] — counted where the epoll fabric counts them,
    /// before a drop is decided.
    sent: Vec<(u64, u64)>,
    /// Skip idle stretches in one go (`skip_idle_ticks`). Always on; tests
    /// turn it off to get the tick-by-tick reference execution.
    skip_idle: bool,
    idle_scratch: Vec<(u64, Reverse<u64>, u64, usize)>,
}

impl<A: Actor> Sim<A> {
    /// Build a simulator over `actors[node][worker]` and schedule the first
    /// tick of every worker at staggered offsets (deterministic).
    pub fn new(actors: Vec<Vec<A>>, cfg: SimCfg) -> Self {
        let nodes = actors.len();
        let workers = actors.first().map(|v| v.len()).unwrap_or(0);
        assert!(nodes > 0 && workers > 0, "need at least one actor");
        assert!(actors.iter().all(|v| v.len() == workers), "ragged actor matrix");
        let slots = nodes * workers;
        let mut sim = Sim {
            actors,
            rng: SplitMix64::new(cfg.seed),
            cfg,
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            timers: Tournament::new(2 * slots),
            due: vec![0; slots],
            deliveries_pending: 0,
            links: vec![Link::default(); nodes * nodes],
            crashed: vec![false; nodes],
            wake_at: vec![0; nodes],
            busy_until: vec![0; slots],
            waiting: (0..slots).map(|_| std::collections::VecDeque::new()).collect(),
            held: vec![0; slots],
            workers,
            nodes,
            scratch: Outbox::new(nodes),
            delivered: 0,
            dropped: 0,
            heap_pushes: 0,
            sent: vec![(0, 0); nodes],
            skip_idle: true,
            idle_scratch: Vec::with_capacity(slots),
        };
        for slot in 0..slots {
            // Stagger initial ticks so nodes don't act in lockstep.
            sim.schedule(tick_leaf(slot), slot as u64 * 97);
        }
        sim
    }

    /// Current virtual time (ns).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// `(messages, envelopes)` that `node`'s workers posted to the fabric
    /// since the last call (dropped ones included, as in the epoll
    /// fabric's `msgs_sent` / `envelopes_sent`); resets the tally.
    pub fn take_sent(&mut self, node: NodeId) -> (u64, u64) {
        std::mem::take(&mut self.sent[node.idx()])
    }

    /// Schedule the tick or drain at `leaf` of `timers` for `time`, ordered
    /// after every event scheduled so far.
    #[inline]
    fn schedule(&mut self, leaf: usize, time: u64) {
        self.seq += 1;
        self.timers.set(leaf, key_of(time, self.seq - 1));
    }

    /// Schedule the delivery of `ev` for `time`: the envelope goes into a
    /// free slab slot (the one last freed — so a re-parked envelope keeps
    /// its own), the heap gets its `(time, seq, slot)`.
    fn push(&mut self, time: u64, ev: Event<A::Msg>) {
        let at = match self.free.pop() {
            Some(at) => {
                self.slab[at as usize] = Some(ev);
                at
            }
            None => {
                self.slab.push(Some(ev));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 envelopes in flight")
            }
        };
        let seq = self.seq;
        self.seq += 1;
        self.heap_pushes += 1;
        self.queue.push(Reverse(Due { time, seq, at }));
    }

    fn node_of(&self, slot: usize) -> NodeId {
        NodeId((slot / self.workers) as u8)
    }

    // ---- fault control (§8.4 in virtual time) ---------------------------

    /// Crash-stop `node`: nothing is delivered to or ticked on it again.
    pub fn crash(&mut self, node: NodeId) {
        self.crashed[node.idx()] = true;
    }

    /// Sleep `node` for `dur_ns` of virtual time starting now.
    pub fn sleep_node(&mut self, node: NodeId, dur_ns: u64) {
        self.wake_at[node.idx()] = self.now + dur_ns;
    }

    /// Set the drop probability on the directed link `src → dst`.
    pub fn set_drop(&mut self, src: NodeId, dst: NodeId, p: f64) {
        self.links[src.idx() * self.nodes + dst.idx()].drop_prob = p.clamp(0.0, 1.0);
    }

    /// Partition `a` from `b` (both directions drop everything).
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.set_drop(a, b, 1.0);
        self.set_drop(b, a, 1.0);
    }

    /// Heal both directions between `a` and `b` (delivery resumes; drop
    /// probability and extra delay reset).
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        for (src, dst) in [(a, b), (b, a)] {
            self.set_drop(src, dst, 0.0);
            self.set_link_delay(src, dst, 0);
        }
    }

    /// Add `extra_ns` of one-way delay on the directed link `src → dst`.
    pub fn set_link_delay(&mut self, src: NodeId, dst: NodeId, extra_ns: u64) {
        self.links[src.idx() * self.nodes + dst.idx()].extra_delay_ns = extra_ns;
    }

    /// Restart `node` as a new process: its actors become the ones
    /// `rebuild` returns (one per worker), and whatever was addressed to the
    /// old incarnation is gone — its receive FIFOs and every delivery still
    /// queued for it, envelopes parked for a sleep included. What it sent
    /// is on the wire and still arrives. A crashed or sleeping node comes
    /// back awake, and its workers tick at once. The pending deliveries are
    /// walked once, here: delivery itself checks nothing new.
    pub fn restart(&mut self, node: NodeId, rebuild: impl FnOnce() -> Vec<A>) {
        let actors = rebuild();
        assert_eq!(actors.len(), self.workers, "one actor per worker");
        self.actors[node.idx()] = actors;
        let (slab, free, mut lost) = (&mut self.slab, &mut self.free, 0);
        self.queue.retain(|Reverse(d)| {
            let to_node = slab[d.at as usize].as_ref().is_some_and(|ev| ev.dst == node);
            if to_node {
                slab[d.at as usize] = None;
                free.push(d.at);
                lost += 1;
            }
            !to_node
        });
        self.deliveries_pending -= lost;
        for slot in node.idx() * self.workers..(node.idx() + 1) * self.workers {
            self.deliveries_pending -= self.waiting[slot].len();
            self.waiting[slot].clear();
            self.held[slot] = 0;
            self.timers.set(drain_leaf(slot), UNSCHEDULED);
            self.busy_until[slot] = self.now;
            self.due[slot] = 0;
            self.schedule(tick_leaf(slot), self.now);
        }
        self.crashed[node.idx()] = false;
        self.wake_at[node.idx()] = 0;
    }

    // ---- execution ------------------------------------------------------

    /// Deliver one envelope to an actor: charge receive cost, run the
    /// handlers, route the output (charging send cost). The drained
    /// envelope buffer is recycled into the scratch outbox's pool.
    fn process_envelope(&mut self, slot: usize, src: NodeId, mepoch: u32, mut msgs: Vec<A::Msg>) {
        self.deliveries_pending -= 1;
        let cost =
            self.cfg.service_per_envelope_ns + self.cfg.service_per_msg_ns * msgs.len() as u64;
        self.busy_until[slot] = self.now.max(self.busy_until[slot]) + cost;
        self.delivered += 1;
        let mut out = std::mem::replace(&mut self.scratch, Outbox::new(0));
        let a = &mut self.actors[slot / self.workers][slot % self.workers];
        a.on_envelope(src, mepoch, &mut msgs, self.now, &mut out);
        // Pump immediately after delivery (protocol progress should not
        // wait for the next tick).
        let wakeup = a.on_tick(self.now, &mut out);
        self.note_wakeup(slot, wakeup);
        out.recycle(msgs);
        self.route(slot, &mut out);
        self.scratch = out;
    }

    /// Record what the worker at `slot` asked for; a kick makes the next
    /// tick of every other worker of its node due.
    fn note_wakeup(&mut self, slot: usize, wakeup: crate::Wakeup) {
        self.due[slot] = wakeup.due();
        if wakeup.kick_siblings {
            let first = slot - slot % self.workers;
            for sibling in (first..first + self.workers).filter(|&s| s != slot) {
                self.due[sibling] = 0;
            }
        }
    }

    /// Schedule the drain event for a worker's receive FIFO if needed.
    fn ensure_drain(&mut self, slot: usize) {
        if self.timers.key(drain_leaf(slot)) == UNSCHEDULED && !self.waiting[slot].is_empty() {
            self.schedule(drain_leaf(slot), self.busy_until[slot].max(self.now));
        }
    }

    /// The pending event that is first in `(time, seq)` order: the heap's
    /// first delivery or the tree's first tick or drain, whichever is
    /// earlier.
    #[inline]
    fn next(&self) -> Option<(u64, Next)> {
        let (leaf, timer) = self.timers.min();
        let delivery = self.queue.peek().map_or(UNSCHEDULED, |Reverse(d)| key_of(d.time, d.seq));
        let (best, which) = if delivery < timer {
            (delivery, Next::Deliver)
        } else if leaf == tick_leaf(leaf / 2) {
            (timer, Next::Tick(leaf / 2))
        } else {
            (timer, Next::Drain(leaf / 2))
        };
        (best != UNSCHEDULED).then_some(((best >> 64) as u64, which))
    }

    /// Process a single event. Returns `false` when none is left.
    pub fn step(&mut self) -> bool {
        let Some((time, which)) = self.next() else {
            return false;
        };
        self.step_at(time, which, u64::MAX);
        true
    }

    /// Process the event [`Sim::next`] found, due at `time`, in a run that
    /// will not go past `limit`.
    fn step_at(&mut self, time: u64, which: Next, limit: u64) -> Step {
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        match which {
            Next::Deliver => self.deliver(),
            Next::Drain(slot) => self.drain(slot),
            Next::Tick(slot) => self.tick(slot, limit),
        }
    }

    fn deliver(&mut self) -> Step {
        let Reverse(Due { at, .. }) = self.queue.pop().expect("next() saw a delivery");
        let mut ev = self.slab[at as usize].take().expect("a pending delivery has its envelope");
        self.free.push(at);
        let slot = ev.dst.idx() * self.workers + ev.worker;
        if ev.held {
            ev.held = false;
            self.held[slot] -= 1;
        }
        if self.crashed[ev.dst.idx()] {
            self.deliveries_pending -= 1; // dropped at a dead NIC
            return Step::Acted;
        }
        let wake = self.wake_at[ev.dst.idx()];
        if wake > self.now {
            // Sleeping node: the NIC keeps receiving into the worker's
            // receive queue, which overflows like any other time — bounded
            // here, at arrival, by what the worker can accept when it
            // wakes. The survivors are redelivered at wake-up time.
            if self.held[slot] > RECV_QUEUE_CAP {
                self.deliveries_pending -= 1;
                self.dropped += 1;
                return Step::Acted;
            }
            self.held[slot] += 1;
            ev.held = true;
            self.push(wake, ev);
            return Step::Blind;
        }
        // Queueing model: a busy worker's envelopes wait in FIFO order; a
        // single drain serves the queue.
        if self.busy_until[slot] > self.now || !self.waiting[slot].is_empty() {
            if self.waiting[slot].len() >= RECV_QUEUE_CAP {
                // UD receive-queue overflow: the datagram is lost.
                self.deliveries_pending -= 1;
                self.dropped += 1;
                return Step::Acted;
            }
            self.waiting[slot].push_back((ev.src, ev.mepoch, ev.msgs));
            self.ensure_drain(slot);
            return Step::Blind;
        }
        self.process_envelope(slot, ev.src, ev.mepoch, ev.msgs);
        Step::Acted
    }

    /// Pop one envelope from the worker's receive FIFO (scheduled whenever
    /// envelopes arrive while the worker's virtual CPU is busy).
    ///
    /// The drain's leaf is re-keyed once, on the way out; the key of a
    /// next drain is taken after the envelope's posts, as a one-queue
    /// scheduler would have pushed it.
    fn drain(&mut self, slot: usize) -> Step {
        let node = self.node_of(slot);
        if self.crashed[node.idx()] {
            // drop the whole backlog at a dead node
            self.deliveries_pending -= self.waiting[slot].len();
            self.waiting[slot].clear();
            self.timers.set(drain_leaf(slot), UNSCHEDULED);
            return Step::Acted;
        }
        // Asleep or busy: try again when neither.
        let wake = self.wake_at[node.idx()];
        if wake > self.now {
            self.schedule(drain_leaf(slot), wake);
            return Step::Blind;
        }
        if self.busy_until[slot] > self.now {
            self.schedule(drain_leaf(slot), self.busy_until[slot]);
            return Step::Blind;
        }
        if let Some((src, mepoch, msgs)) = self.waiting[slot].pop_front() {
            self.look_ahead(slot);
            self.process_envelope(slot, src, mepoch, msgs);
        }
        if self.waiting[slot].is_empty() {
            self.timers.set(drain_leaf(slot), UNSCHEDULED);
        } else {
            self.schedule(drain_leaf(slot), self.busy_until[slot].max(self.now));
        }
        Step::Acted
    }

    /// One step of look-ahead, spent on cache hints, taken while the
    /// envelope just popped is still to be processed. With thousands of
    /// envelopes in flight a worker's backlog is cold by the time it is
    /// served, and so is every store slot its requests name. The envelope
    /// now at the front of the FIFO is the next thing this worker is handed
    /// (arrivals queue behind it; a crash drops it, nothing overtakes it) —
    /// this envelope's handlers and other workers' events from now, which
    /// is the time a load needs. So the actor is told about it
    /// ([`Actor::prefetch`]), and the buffer behind it is requested so that
    /// *its* turn to be read does not miss either.
    #[inline]
    fn look_ahead(&self, slot: usize) {
        let fifo = &self.waiting[slot];
        if let Some((_, _, next)) = fifo.front() {
            self.actors[slot / self.workers][slot % self.workers].prefetch(next);
        }
        #[cfg(target_arch = "x86_64")]
        if let Some((_, _, after)) = fifo.get(1) {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: a prefetch is a hint: it dereferences nothing and
            // cannot fault whatever the address (here the start of a live
            // `Vec`'s buffer); SSE is baseline on x86-64.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(after.as_ptr().cast::<i8>()) };
        }
    }

    /// A worker's tick fired. Its place in the `(time, seq)` order is that
    /// of the polled tick it replaces — one per `TICK_NS` while the worker
    /// is free, deferred past busy periods and sleeps — but the actor is
    /// only called when the tick is due by the actor's own account
    /// ([`crate::Wakeup`]): a tick it did not ask for is one whose `on_tick` would
    /// have done nothing, so skipping the call moves no virtual-time figure
    /// and leaves an idle worker costing a slot update per tick.
    fn tick(&mut self, slot: usize, limit: u64) -> Step {
        let node = self.node_of(slot);
        if self.crashed[node.idx()] {
            // crashed nodes stop ticking forever
            self.timers.set(tick_leaf(slot), UNSCHEDULED);
            return Step::Blind;
        }
        let wake = self.wake_at[node.idx()];
        if wake > self.now {
            self.schedule(tick_leaf(slot), wake);
            return Step::Blind;
        }
        if self.busy_until[slot] > self.now {
            self.schedule(tick_leaf(slot), self.busy_until[slot]);
            return Step::Blind;
        }
        let called = self.now >= self.due[slot];
        if !called && self.skip_idle && self.skip_idle_ticks(limit) {
            return Step::Blind;
        }
        if called {
            let mut out = std::mem::replace(&mut self.scratch, Outbox::new(0));
            let a = &mut self.actors[slot / self.workers][slot % self.workers];
            let wakeup = a.on_tick(self.now, &mut out);
            self.note_wakeup(slot, wakeup);
            self.route(slot, &mut out);
            self.scratch = out;
        }
        self.schedule(tick_leaf(slot), self.now + TICK_NS);
        if called {
            Step::Acted
        } else {
            Step::Blind
        }
    }

    /// Skip an idle stretch in one go. With no envelope anywhere and no
    /// worker busy or asleep, nothing can happen before the earliest tick
    /// some actor asked for: until then every event is a tick that is not
    /// due, and each does nothing but re-key itself one `TICK_NS` on. So
    /// every worker's tick is moved straight to its first grid point that
    /// is not ordered before that earliest due tick (or past `limit`, if
    /// the run ends first) — where tick-by-tick stepping would have left
    /// it. Returns `false`, having changed nothing, when the stretch is not
    /// of that kind.
    ///
    /// Ties keep the order stepping gives them. Two ticks that meet at one
    /// time `T` were each scheduled when their predecessor fired at
    /// `T - TICK_NS`, in the order those fired — so by induction in the
    /// order of the first instant both chains had a tick, where a tick
    /// still pending from before the stretch precedes one scheduled within
    /// it: the later-starting chain goes first, then the older `seq`.
    fn skip_idle_ticks(&mut self, limit: u64) -> bool {
        let dt = TICK_NS;
        if !self.queue.is_empty() || dt == 0 {
            return false;
        }
        // First grid point of the chain starting at `t0` that is `>= at`.
        let grid = |t0: u64, at: u64| t0 + at.saturating_sub(t0).div_ceil(dt) * dt;
        // (first due grid point, chain start — later first, seq) of the
        // earliest tick that will call its actor.
        let mut horizon = (u64::MAX, Reverse(0), 0);
        let slots = self.busy_until.len();
        for slot in 0..slots {
            let key = self.timers.key(tick_leaf(slot));
            if self.timers.key(drain_leaf(slot)) != UNSCHEDULED {
                return false;
            }
            if key == UNSCHEDULED {
                continue; // a crashed node's worker: retired for good
            }
            let (t0, seq0) = ((key >> 64) as u64, key as u64);
            let node = slot / self.workers;
            if self.crashed[node] || self.wake_at[node] > t0 || self.busy_until[slot] > t0 {
                return false; // this chain is about to be deferred, not stepped
            }
            let due = self.due[slot].min(u64::MAX - 2 * dt);
            horizon = horizon.min((grid(t0, due), Reverse(t0), seq0));
        }
        let cut = match limit.checked_add(1) {
            Some(end) if end <= horizon.0 => (end, Reverse(u64::MAX), 0),
            _ if horizon.0 >= u64::MAX - 2 * dt => return false, // nothing is ever due
            _ => horizon,
        };
        self.idle_scratch.clear();
        for slot in 0..slots {
            let key = self.timers.key(tick_leaf(slot));
            if key == UNSCHEDULED {
                continue;
            }
            let (t0, seq0) = ((key >> 64) as u64, key as u64);
            let mut at = grid(t0, cut.0);
            if (at, Reverse(t0), seq0) < cut {
                at += dt; // ordered before the cut: one more skipped tick
            }
            if at > t0 {
                self.now = self.now.max(at - dt); // the last tick skipped
            }
            self.idle_scratch.push((at, Reverse(t0), seq0, slot));
        }
        self.idle_scratch.sort_unstable();
        for i in 0..self.idle_scratch.len() {
            let (at, _, _, slot) = self.idle_scratch[i];
            self.schedule(tick_leaf(slot), at);
        }
        true
    }

    fn route(&mut self, slot: usize, out: &mut Outbox<A::Msg>) {
        if out.is_empty() {
            return;
        }
        let max_batch = self.cfg.max_batch;
        let stamp = out.stamp();
        // Each batch is posted to the fabric straight out of the flush —
        // no intermediate collection.
        out.flush(|dst, batch| {
            // A batch cap (ablation: `max_batch = 1` disables batching)
            // splits one step's output into several envelopes, each paying
            // its own envelope costs.
            if max_batch > 0 && batch.len() > max_batch {
                let mut batch = batch;
                while batch.len() > max_batch {
                    let rest = batch.split_off(max_batch);
                    self.post(slot, dst, stamp, std::mem::replace(&mut batch, rest));
                }
                if !batch.is_empty() {
                    self.post(slot, dst, stamp, batch);
                }
            } else {
                self.post(slot, dst, stamp, batch);
            }
        });
    }

    /// Post one envelope from the worker at `slot` to the fabric: charge the
    /// sender-side cost, roll the fault/jitter dice, schedule delivery (to
    /// the peered worker at `dst` — §6.3 worker peering).
    fn post(&mut self, slot: usize, dst: NodeId, mepoch: u32, msgs: Vec<A::Msg>) {
        let src = self.node_of(slot);
        let sent = &mut self.sent[src.idx()];
        sent.0 += msgs.len() as u64;
        sent.1 += 1;
        // Sender-side cost (NIC posting): charged whether or not the
        // fault plane then drops the envelope.
        self.busy_until[slot] = self.busy_until[slot].max(self.now)
            + self.cfg.send_per_envelope_ns
            + self.cfg.send_per_msg_ns * msgs.len() as u64;
        let link = self.links[src.idx() * self.nodes + dst.idx()];
        if link.drop_prob > 0.0 && self.rng.chance(link.drop_prob) {
            self.dropped += 1;
            return;
        }
        let jitter = self.rng.next_below(JITTER_NS);
        let latency = if dst == src {
            200 // loopback
        } else {
            BASE_LATENCY_NS + jitter + link.extra_delay_ns
        };
        self.deliveries_pending += 1;
        let worker = slot % self.workers;
        let ev = Event { dst, worker, src, mepoch, msgs, held: false };
        self.push(self.now + latency, ev);
    }

    /// Run until virtual time passes `deadline_ns`.
    pub fn run_until(&mut self, deadline_ns: u64) {
        while let Some((time, which)) = self.next().filter(|&(time, _)| time <= deadline_ns) {
            self.step_at(time, which, deadline_ns);
        }
        self.now = self.now.max(deadline_ns);
    }

    /// Run `dur_ns` of virtual time from now.
    pub fn run_for(&mut self, dur_ns: u64) {
        let deadline = self.now + dur_ns;
        self.run_until(deadline);
    }

    /// Run until every actor reports idle and no deliveries are in flight,
    /// or until `max_ns` virtual time is reached. Returns `true` on
    /// quiescence. Crashed nodes' actors are exempt: they stop ticking, so
    /// their own idleness bookkeeping (e.g. an anti-entropy cool-down) can
    /// never advance, and a crash-stopped node has no outstanding work by
    /// definition.
    pub fn run_until_quiesce(&mut self, max_ns: u64) -> bool {
        // Idleness is only re-examined after a step that could have changed
        // it: a tick that was not due touches no actor.
        let mut last = Step::Acted;
        loop {
            if last == Step::Acted
                && self.deliveries_pending == 0
                && self
                    .actors
                    .iter()
                    .enumerate()
                    .filter(|(n, _)| !self.crashed[*n])
                    .flat_map(|(_, v)| v)
                    .all(|a| a.is_idle())
            {
                return true;
            }
            let Some((time, which)) = self.next().filter(|&(time, _)| time <= max_ns) else {
                return false;
            };
            last = self.step_at(time, which, max_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Wakeup;

    /// Test actor: node 0 sends `count` pings to everyone; everyone pongs;
    /// node 0 counts pongs.
    struct Pinger {
        me: NodeId,
        to_send: usize,
        pongs: usize,
        sent: usize,
    }

    impl Pinger {
        fn new(me: NodeId, to_send: usize) -> Self {
            Pinger { me, to_send, pongs: 0, sent: 0 }
        }
    }

    impl Actor for Pinger {
        type Msg = u8;

        fn on_envelope(
            &mut self,
            src: NodeId,
            _mepoch: u32,
            msgs: &mut Vec<u8>,
            _now: u64,
            out: &mut Outbox<u8>,
        ) {
            for m in msgs.drain(..) {
                if m == 0 {
                    out.send(src, 1);
                } else {
                    self.pongs += 1;
                }
            }
        }

        // Tests reset `sent` from outside between runs, so the pinger asks
        // for every tick rather than trusting its own idea of "done".
        fn on_tick(&mut self, _now: u64, out: &mut Outbox<u8>) -> Wakeup {
            if self.me == NodeId(0) && self.sent < self.to_send {
                self.sent += 1;
                out.broadcast(self.me, 0u8);
            }
            Wakeup::AGAIN
        }

        fn is_idle(&self) -> bool {
            self.me != NodeId(0) || self.sent == self.to_send
        }
    }

    fn build(nodes: usize, to_send: usize, seed: u64) -> Sim<Pinger> {
        let actors: Vec<Vec<Pinger>> = (0..nodes)
            .map(|n| vec![Pinger::new(NodeId(n as u8), to_send)])
            .collect();
        Sim::new(actors, SimCfg { seed, ..Default::default() })
    }

    #[test]
    fn all_pings_answered_without_faults() {
        let mut sim = build(3, 5, 42);
        assert!(sim.run_until_quiesce(1_000_000_000));
        assert_eq!(sim.actors[0][0].pongs, 10); // 5 rounds × 2 peers
        assert_eq!(sim.dropped, 0);
    }

    /// Deliveries are the only heap traffic: one push per envelope, however
    /// often the receiving worker was busy and its ticks deferred.
    #[test]
    fn the_heap_sees_one_push_per_envelope() {
        let mut sim = build(5, 500, 42);
        assert!(sim.run_until_quiesce(1_000_000_000));
        assert_eq!(sim.delivered, 500 * 4 * 2, "every ping and every pong");
        assert_eq!(sim.heap_pushes, sim.delivered);
    }

    /// The tree's root is the smallest leaf after every re-key — random
    /// leaves set to random keys or unscheduled, and the current winner
    /// moved later and earlier — at leaf counts that are and are not powers
    /// of two.
    #[test]
    fn the_tournament_root_is_the_minimum() {
        let mut rng = SplitMix64::new(26);
        for leaves in [2, 10, 20, 30] {
            let mut tree = Tournament::new(leaves);
            let mut seq = 0;
            for round in 0..4_000 {
                let (winner, best) = tree.min();
                let (leaf, time) = match round % 4 {
                    _ if best == UNSCHEDULED => (winner, rng.next_below(1 << 20)),
                    0 => (winner, (best >> 64) as u64 + 1 + rng.next_below(1_000)),
                    1 => (winner, ((best >> 64) as u64).saturating_sub(1 + rng.next_below(1_000))),
                    _ => (rng.next_below(leaves as u64) as usize, rng.next_below(1 << 20)),
                };
                seq += 1;
                let key = if rng.next_below(5) == 0 { UNSCHEDULED } else { key_of(time, seq) };
                tree.set(leaf, key);
                let brute = (0..leaves).map(|l| tree.key(l)).min().unwrap();
                assert_eq!(tree.min().1, brute, "{leaves} leaves, round {round}: leaf {leaf} re-keyed");
            }
        }
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed| {
            let mut sim = build(5, 20, seed);
            sim.set_drop(NodeId(0), NodeId(1), 0.3);
            sim.run_for(50_000_000);
            (sim.delivered, sim.dropped, sim.actors[0][0].pongs, sim.now())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn drops_reduce_pongs() {
        let mut sim = build(3, 50, 3);
        sim.set_drop(NodeId(0), NodeId(1), 1.0);
        sim.run_for(100_000_000);
        // All pings to node 1 dropped: only node 2 answers.
        assert_eq!(sim.actors[0][0].pongs, 50);
        assert_eq!(sim.dropped, 50);
    }

    #[test]
    fn crashed_node_never_answers() {
        let mut sim = build(3, 10, 5);
        sim.crash(NodeId(2));
        sim.run_for(100_000_000);
        assert_eq!(sim.actors[0][0].pongs, 10);
    }

    /// A restart loses what was on its way to the old incarnation, not what
    /// it sent, and the new actors serve from then on.
    #[test]
    fn a_restart_drops_what_was_addressed_to_the_old_incarnation() {
        let mut sim = build(3, 2, 5);
        sim.run_until(3_000); // two pings out, none delivered (5 µs latency)
        sim.restart(NodeId(1), || vec![Pinger::new(NodeId(1), 2)]);
        assert!(sim.run_until_quiesce(1_000_000_000));
        assert_eq!(sim.actors[0][0].pongs, 2, "node 1 never saw the pings");
        sim.actors[0][0].to_send = 3;
        assert!(sim.run_until_quiesce(1_000_000_000));
        assert_eq!(sim.actors[0][0].pongs, 4, "the new node 1 answers");
        // A crashed node restarts awake.
        sim.crash(NodeId(2));
        sim.restart(NodeId(2), || vec![Pinger::new(NodeId(2), 0)]);
        sim.actors[0][0].to_send = 4;
        assert!(sim.run_until_quiesce(1_000_000_000));
        assert_eq!(sim.actors[0][0].pongs, 6);
    }

    #[test]
    fn sleeping_node_answers_late() {
        let mut sim = build(3, 1, 9);
        sim.sleep_node(NodeId(1), 10_000_000); // 10 ms
        sim.run_for(5_000_000);
        assert_eq!(sim.actors[0][0].pongs, 1, "only node 2 so far");
        sim.run_for(20_000_000);
        assert_eq!(sim.actors[0][0].pongs, 2, "node 1 answers after waking");
    }

    #[test]
    fn partition_heals() {
        let mut sim = build(3, 1, 11);
        sim.partition(NodeId(0), NodeId(1));
        sim.run_for(5_000_000);
        assert_eq!(sim.actors[0][0].pongs, 1);
        sim.heal(NodeId(0), NodeId(1));
        // another round of pings
        sim.actors[0][0].sent = 0;
        sim.run_for(5_000_000);
        assert_eq!(sim.actors[0][0].pongs, 3);
    }

    /// A heal resets a link's extra delay along with its drop probability.
    #[test]
    fn heal_resets_loss_and_delay() {
        let mut sim = build(3, 1, 11);
        sim.set_drop(NodeId(0), NodeId(1), 0.5);
        sim.set_link_delay(NodeId(0), NodeId(1), 50_000_000);
        sim.set_link_delay(NodeId(1), NodeId(0), 50_000_000);
        sim.heal(NodeId(1), NodeId(0));
        sim.run_for(1_000_000);
        assert_eq!(sim.actors[0][0].pongs, 2, "both pongs inside a millisecond");
        assert_eq!(sim.dropped, 0);
    }

    #[test]
    fn virtual_time_advances_only_with_events() {
        let mut sim = build(3, 0, 1);
        sim.run_until(1_000_000);
        assert_eq!(sim.now(), 1_000_000);
    }

    #[test]
    fn quiesce_times_out_when_work_remains() {
        let mut sim = build(3, 1_000_000_000, 1); // effectively endless
        assert!(!sim.run_until_quiesce(1_000_000));
    }

    /// One step's output to a single destination: sent whole by default,
    /// split into per-message envelopes under the batching ablation.
    struct Burst {
        me: NodeId,
        burst: usize,
        sent: bool,
        got: usize,
    }

    impl Actor for Burst {
        type Msg = u8;

        fn on_envelope(
            &mut self,
            _src: NodeId,
            _mepoch: u32,
            msgs: &mut Vec<u8>,
            _now: u64,
            _out: &mut Outbox<u8>,
        ) {
            self.got += msgs.len();
            msgs.clear();
        }

        fn on_tick(&mut self, _now: u64, out: &mut Outbox<u8>) -> Wakeup {
            if self.me == NodeId(0) && !self.sent {
                self.sent = true;
                for i in 0..self.burst {
                    out.send(NodeId(1), i as u8);
                }
            }
            Wakeup::IDLE
        }

        fn is_idle(&self) -> bool {
            self.me != NodeId(0) || self.sent
        }
    }

    fn burst_sim(max_batch: usize) -> Sim<Burst> {
        let actors = (0..2)
            .map(|n| vec![Burst { me: NodeId(n as u8), burst: 10, sent: false, got: 0 }])
            .collect();
        Sim::new(actors, SimCfg { seed: 1, max_batch, ..Default::default() })
    }

    #[test]
    fn batch_cap_splits_envelopes_but_loses_nothing() {
        let mut whole = burst_sim(0);
        assert!(whole.run_until_quiesce(1_000_000_000));
        let mut capped = burst_sim(3);
        assert!(capped.run_until_quiesce(1_000_000_000));
        let mut single = burst_sim(1);
        assert!(single.run_until_quiesce(1_000_000_000));

        for sim in [&whole, &capped, &single] {
            assert_eq!(sim.actors[1][0].got, 10, "every message delivered");
        }
        assert_eq!(whole.delivered, 1, "default: one envelope per step+dst");
        assert_eq!(capped.delivered, 4, "10 msgs at cap 3 → 4 envelopes");
        assert_eq!(single.delivered, 10, "cap 1: batching disabled");
    }

    /// Node 0 floods node 1 with one envelope per tick for `ticks` ticks;
    /// node 1 just counts what reaches it.
    struct Flood {
        me: NodeId,
        ticks: usize,
        got: usize,
    }

    impl Actor for Flood {
        type Msg = u8;

        fn on_envelope(
            &mut self,
            _src: NodeId,
            _mepoch: u32,
            msgs: &mut Vec<u8>,
            _now: u64,
            _out: &mut Outbox<u8>,
        ) {
            self.got += msgs.len();
            msgs.clear();
        }

        fn on_tick(&mut self, _now: u64, out: &mut Outbox<u8>) -> Wakeup {
            if self.me == NodeId(0) && self.ticks > 0 {
                self.ticks -= 1;
                out.send(NodeId(1), 7);
                return Wakeup::AGAIN;
            }
            Wakeup::IDLE
        }

        fn is_idle(&self) -> bool {
            self.me != NodeId(0) || self.ticks == 0
        }
    }

    /// A sleeping node's inbox is a receive queue like any other: bounded
    /// when the envelopes arrive, not when the node wakes. The sleep outlasts
    /// `RECV_QUEUE_CAP` envelopes, so the queue overflows. The drop and
    /// delivery totals are the ones the unbounded inbox of `b701804`
    /// produced for this scenario and seed, and the event heap never
    /// carries more than the worker can accept at wake-up plus what is on
    /// the wire — nor the envelope slab more slots than the heap has held
    /// entries.
    #[test]
    fn sleeping_inbox_is_bounded_at_arrival() {
        const CAP: usize = RECV_QUEUE_CAP;
        const FLOOD: usize = 8_000;
        const SLEEP: u64 = 12_000_000;
        let actors = (0..2).map(|n| vec![Flood { me: NodeId(n as u8), ticks: FLOOD, got: 0 }]).collect();
        let mut sim = Sim::new(actors, SimCfg { seed: 5, ..Default::default() });
        sim.run_for(100_000);
        sim.sleep_node(NodeId(1), SLEEP);
        // One-way latency is at most base + jitter, so at one envelope per
        // tick this many are on the wire at any instant.
        let in_flight = ((BASE_LATENCY_NS + JITTER_NS) / TICK_NS) as usize + 1;
        let mut peak = 0;
        while sim.now() < SLEEP && sim.step() {
            peak = peak.max(sim.queue.len());
        }
        assert!(
            peak <= (CAP + 1) + in_flight,
            "heap peaked at {peak} events: the inbox of a sleeping worker holds at most {}",
            CAP + 1
        );
        assert!(sim.slab.len() <= peak, "{} slab slots for a heap of at most {peak}", sim.slab.len());
        assert!(sim.run_until_quiesce(1_000_000_000));
        let totals = (sim.delivered, sim.dropped);
        assert_eq!(totals, (6097, 1903), "same totals as the unbounded inbox");
        assert_eq!(sim.actors[1][0].got as u64, sim.delivered);
        assert_eq!(sim.delivered + sim.dropped, FLOOD as u64, "every envelope accounted for");
    }

    /// Floods every peer with uniquely numbered messages and checks each
    /// look-ahead notice against the delivery it was about.
    struct Watcher {
        me: NodeId,
        ticks: usize,
        next: u32,
        /// A notice just given: about the delivery after the one in hand.
        announced: std::sync::Mutex<Option<Vec<u32>>>,
        /// The notice the next delivery has to match.
        expected: Option<Vec<u32>>,
        honoured: usize,
        unannounced: usize,
    }

    impl Actor for Watcher {
        type Msg = u32;

        fn on_envelope(
            &mut self,
            _src: NodeId,
            _mepoch: u32,
            msgs: &mut Vec<u32>,
            _now: u64,
            _out: &mut Outbox<u32>,
        ) {
            let announced = self.announced.get_mut().unwrap().take();
            match std::mem::replace(&mut self.expected, announced) {
                Some(hint) => {
                    assert_eq!(&hint, msgs, "node {}: announced one batch, delivered another", self.me);
                    self.honoured += 1;
                }
                None => self.unannounced += 1,
            }
            msgs.clear();
        }

        fn prefetch(&self, msgs: &[u32]) {
            let stale = self.announced.lock().unwrap().replace(msgs.to_vec());
            assert_eq!(stale, None, "node {}: two notices with no delivery between", self.me);
        }

        fn on_tick(&mut self, _now: u64, out: &mut Outbox<u32>) -> Wakeup {
            if self.ticks == 0 {
                return Wakeup::IDLE;
            }
            self.ticks -= 1;
            for _ in 0..1 + self.next % 3 {
                self.next += 1;
                out.broadcast(self.me, (self.me.0 as u32) << 24 | self.next);
            }
            Wakeup::AGAIN
        }

        fn is_idle(&self) -> bool {
            self.ticks == 0
        }
    }

    /// A look-ahead notice, given with one delivery in hand, names the
    /// delivery after it: through a backlog that overflows, a sleep that
    /// parks it, and a crash that throws it away (the crashed node's last
    /// notice is never honoured — and nothing else is delivered there
    /// either).
    #[test]
    fn a_look_ahead_notice_names_the_next_delivery() {
        let actors = (0..4)
            .map(|n| {
                vec![Watcher {
                    me: NodeId(n),
                    ticks: 8_000,
                    next: 0,
                    announced: Default::default(),
                    expected: None,
                    honoured: 0,
                    unannounced: 0,
                }]
            })
            .collect();
        // Serving an envelope costs about a tick and three arrive per tick:
        // every worker's backlog grows by more than one envelope a tick, and
        // within 6 ms the receive queues overflow.
        let cfg = SimCfg { seed: 3, service_per_envelope_ns: 1_500, ..Default::default() };
        let mut sim = Sim::new(actors, cfg);
        sim.run_for(3_000_000);
        sim.sleep_node(NodeId(1), 500_000);
        sim.run_for(3_000_000);
        let drops = sim.dropped;
        assert!(drops > 1_000, "the queues overflowed before the crash ({drops} drops)");
        sim.crash(NodeId(2));
        let at_crash = (sim.actors[2][0].honoured, sim.actors[2][0].unannounced);
        assert!(sim.run_until_quiesce(1_000_000_000));
        assert!(sim.dropped > 1_000, "the queues overflowed ({} drops)", sim.dropped);
        for n in [0, 1, 3] {
            let a = &mut sim.actors[n][0];
            assert!(a.honoured > 1_000, "node {n}: {} notices honoured", a.honoured);
            let left = (a.announced.get_mut().unwrap().take(), a.expected.take());
            assert_eq!(left, (None, None), "node {n}: a notice was never honoured");
        }
        let dead = &sim.actors[2][0];
        assert_eq!((dead.honoured, dead.unannounced), at_crash, "nothing reaches a dead node");
        let delivered: usize = sim.actors.iter().map(|a| a[0].honoured + a[0].unannounced).sum();
        assert_eq!(delivered as u64, sim.delivered);
    }

    /// Every worker broadcasts a beacon each `period`, re-armed from the
    /// time the tick actually ran — so the whole trajectory depends on
    /// which grid point each deadline is honoured at.
    struct Beacon {
        me: NodeId,
        period: u64,
        next: u64,
        log: std::sync::Arc<std::sync::Mutex<Vec<(u64, u8, u8)>>>,
    }

    impl Actor for Beacon {
        type Msg = u8;

        fn on_envelope(
            &mut self,
            src: NodeId,
            _mepoch: u32,
            msgs: &mut Vec<u8>,
            now: u64,
            _out: &mut Outbox<u8>,
        ) {
            self.log.lock().unwrap().push((now, self.me.0, src.0));
            msgs.clear();
        }

        fn on_tick(&mut self, now: u64, out: &mut Outbox<u8>) -> Wakeup {
            if now >= self.next {
                self.log.lock().unwrap().push((now, self.me.0, u8::MAX));
                out.broadcast(self.me, 1);
                self.next = now + self.period;
            }
            Wakeup::at(self.next)
        }
    }

    /// Skipping an idle stretch in one go lands every tick where stepping
    /// through it would: same calls at the same virtual times in the same
    /// order (the shared log), same jitter draws (the delivery times in it),
    /// across sleeps, a crash, busy deferrals and run boundaries that fall
    /// mid-stretch.
    #[test]
    fn skipping_idle_stretches_is_invisible() {
        let run = |skip_idle: bool| {
            let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let periods = [7_300, 11_000, 50_001, 2_000, 333_333, 90_000];
            let actors = (0..3)
                .map(|n| {
                    (0..2)
                        .map(|w| Beacon {
                            me: NodeId(n as u8),
                            period: periods[n * 2 + w],
                            next: 0,
                            log: std::sync::Arc::clone(&log),
                        })
                        .collect()
                })
                .collect();
            let mut sim = Sim::new(actors, SimCfg { seed: 21, ..Default::default() });
            sim.skip_idle = skip_idle;
            sim.run_for(1_234_567);
            sim.sleep_node(NodeId(1), 400_001);
            sim.run_for(777_777);
            sim.crash(NodeId(2));
            sim.run_until(3_000_001);
            sim.actors[0][0].period = 1_000_000_000; // long idle stretches from here on
            sim.actors[0][1].period = 1_000_000_000;
            sim.actors[1][0].period = 700_000;
            sim.actors[1][1].period = 1_100_000;
            sim.run_for(20_000_000);
            let steps = sim.seq;
            let log = std::mem::take(&mut *log.lock().unwrap());
            (log, sim.delivered, sim.dropped, sim.now(), steps)
        };
        let (stepped, skipped) = (run(false), run(true));
        assert!(stepped.0.len() > 1_000, "the scenario did something");
        assert_eq!(stepped.0, skipped.0, "same calls, same order, same times");
        assert_eq!((stepped.1, stepped.2, stepped.3), (skipped.1, skipped.2, skipped.3));
        assert!(skipped.4 * 3 < stepped.4, "{} events scheduled vs {}", skipped.4, stepped.4);
    }
}
