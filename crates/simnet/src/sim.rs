//! Deterministic discrete-event simulator.
//!
//! Runs the same [`Actor`]s as the threaded runtime, single-threaded, on
//! virtual time: a binary heap of events (envelope deliveries and worker
//! ticks) with seeded latency jitter, message drops, partitions, node sleeps
//! and crashes. Given the same seed, configuration and actor behaviour, the
//! execution — including every fast/slow-path transition of Kite — replays
//! identically. The correctness test-suites are built on this.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kite_common::rng::SplitMix64;
use kite_common::NodeId;

use crate::actor::Actor;
use crate::outbox::Outbox;

/// Simulator timing/fault defaults. Latencies are loosely modeled on the
/// paper's testbed (single-switch InfiniBand: a few microseconds per hop).
#[derive(Clone, Debug)]
pub struct SimCfg {
    /// Base one-way latency, nanoseconds.
    pub base_latency_ns: u64,
    /// Uniform extra jitter in `[0, jitter_ns)`.
    pub jitter_ns: u64,
    /// Worker tick cadence (sessions pumped, timeouts checked).
    pub tick_ns: u64,
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
    /// Per-worker receive-queue capacity. Like RDMA UD receive queues,
    /// arrivals beyond the capacity are *dropped* (counted in
    /// [`Sim::dropped`]) — this is what bounds the backlog a §8.4 sleeping
    /// replica wakes up to, and it is precisely the loss mode Kite's
    /// delinquency machinery exists to absorb.
    pub recv_queue_cap: usize,
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
            base_latency_ns: 5_000,
            jitter_ns: 2_000,
            tick_ns: 2_000,
            seed: 1,
            service_per_envelope_ns: 200,
            service_per_msg_ns: 100,
            send_per_envelope_ns: 150,
            send_per_msg_ns: 40,
            recv_queue_cap: 4096,
            max_batch: 0,
        }
    }
}

enum EventKind<P> {
    Deliver { dst: NodeId, worker: usize, src: NodeId, mepoch: u32, msgs: Vec<P> },
    Tick { node: NodeId, worker: usize },
    /// Pop one envelope from the worker's receive FIFO (scheduled whenever
    /// envelopes arrive while the worker's virtual CPU is busy).
    Drain { node: NodeId, worker: usize },
}

struct Event<P> {
    time: u64,
    seq: u64,
    kind: EventKind<P>,
}

// Order events by (time, seq): deterministic tie-break.
impl<P> PartialEq for Event<P> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<P> Eq for Event<P> {}
impl<P> PartialOrd for Event<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Event<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
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
    queue: BinaryHeap<Reverse<Event<A::Msg>>>,
    deliveries_pending: usize,
    rng: SplitMix64,
    links: Vec<Link>,
    crashed: Vec<bool>,
    wake_at: Vec<u64>,
    /// Virtual CPU availability per `(node, worker)` — the queueing model's
    /// server clock: a worker busy until `t` defers deliveries and ticks.
    busy_until: Vec<u64>,
    /// Per-worker receive FIFO: envelopes that arrived while busy. One
    /// `Drain` event at a time serves each FIFO (O(1) events per envelope —
    /// re-enqueueing every waiter would be quadratic under load).
    waiting: Vec<std::collections::VecDeque<(NodeId, u32, Vec<A::Msg>)>>,
    drain_scheduled: Vec<bool>,
    workers: usize,
    nodes: usize,
    scratch: Outbox<A::Msg>,
    /// Total envelopes delivered (for tests asserting traffic happened).
    pub delivered: u64,
    /// Total envelopes dropped by fault injection.
    pub dropped: u64,
}

impl<A: Actor> Sim<A> {
    /// Build a simulator over `actors[node][worker]` and schedule the first
    /// tick of every worker at staggered offsets (deterministic).
    pub fn new(actors: Vec<Vec<A>>, cfg: SimCfg) -> Self {
        let nodes = actors.len();
        let workers = actors.first().map(|v| v.len()).unwrap_or(0);
        assert!(nodes > 0 && workers > 0, "need at least one actor");
        assert!(actors.iter().all(|v| v.len() == workers), "ragged actor matrix");
        let mut sim = Sim {
            actors,
            rng: SplitMix64::new(cfg.seed),
            cfg,
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            deliveries_pending: 0,
            links: vec![Link::default(); nodes * nodes],
            crashed: vec![false; nodes],
            wake_at: vec![0; nodes],
            busy_until: vec![0; nodes * workers],
            waiting: (0..nodes * workers).map(|_| std::collections::VecDeque::new()).collect(),
            drain_scheduled: vec![false; nodes * workers],
            workers,
            nodes,
            scratch: Outbox::new(nodes),
            delivered: 0,
            dropped: 0,
        };
        for n in 0..nodes {
            for w in 0..workers {
                // Stagger initial ticks so nodes don't act in lockstep.
                let t = (n * workers + w) as u64 * 97;
                sim.push(t, EventKind::Tick { node: NodeId(n as u8), worker: w });
            }
        }
        sim
    }

    /// Current virtual time (ns).
    pub fn now(&self) -> u64 {
        self.now
    }

    fn push(&mut self, time: u64, kind: EventKind<A::Msg>) {
        if matches!(kind, EventKind::Deliver { .. }) {
            self.deliveries_pending += 1;
        }
        self.queue.push(Reverse(Event { time, seq: self.seq, kind }));
        self.seq += 1;
    }

    // ---- fault control (virtual-time variants of `FaultPlane`) ---------

    /// Crash-stop `node`: nothing is delivered to or ticked on it again.
    pub fn crash(&mut self, node: NodeId) {
        self.crashed[node.idx()] = true;
    }

    /// Whether `node` has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.idx()]
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
        self.set_drop(a, b, 0.0);
        self.set_drop(b, a, 0.0);
    }

    /// Add `extra_ns` of one-way delay on the directed link `src → dst`.
    pub fn set_link_delay(&mut self, src: NodeId, dst: NodeId, extra_ns: u64) {
        self.links[src.idx() * self.nodes + dst.idx()].extra_delay_ns = extra_ns;
    }

    // ---- execution ------------------------------------------------------

    /// Deliver one envelope to an actor: charge receive cost, run the
    /// handlers, route the output (charging send cost). The drained
    /// envelope buffer is recycled into the scratch outbox's pool.
    fn process_envelope(
        &mut self,
        dst: NodeId,
        worker: usize,
        src: NodeId,
        mepoch: u32,
        mut msgs: Vec<A::Msg>,
    ) {
        self.deliveries_pending -= 1;
        let slot = dst.idx() * self.workers + worker;
        let cost =
            self.cfg.service_per_envelope_ns + self.cfg.service_per_msg_ns * msgs.len() as u64;
        self.busy_until[slot] = self.now.max(self.busy_until[slot]) + cost;
        self.delivered += 1;
        let mut out = std::mem::replace(&mut self.scratch, Outbox::new(0));
        let a = &mut self.actors[dst.idx()][worker];
        a.on_envelope_stamped(src, mepoch, &mut msgs, self.now, &mut out);
        // Pump immediately after delivery (protocol progress should not
        // wait for the next tick).
        a.on_tick(self.now, &mut out);
        out.recycle(msgs);
        self.route(dst, worker, &mut out);
        self.scratch = out;
    }

    /// Schedule the drain event for a worker's receive FIFO if needed.
    fn ensure_drain(&mut self, node: NodeId, worker: usize) {
        let slot = node.idx() * self.workers + worker;
        if !self.drain_scheduled[slot] && !self.waiting[slot].is_empty() {
            self.drain_scheduled[slot] = true;
            let at = self.busy_until[slot].max(self.now);
            self.push(at, EventKind::Drain { node, worker });
        }
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "time went backwards");
        self.now = ev.time;
        match ev.kind {
            EventKind::Deliver { dst, worker, src, mepoch, msgs } => {
                if self.crashed[dst.idx()] {
                    self.deliveries_pending -= 1; // dropped at a dead NIC
                    return true;
                }
                let wake = self.wake_at[dst.idx()];
                if wake > self.now {
                    // Sleeping node: buffer (redeliver at wake time).
                    self.deliveries_pending -= 1; // push() re-increments
                    self.push(wake, EventKind::Deliver { dst, worker, src, mepoch, msgs });
                    return true;
                }
                // Queueing model: a busy worker's envelopes wait in FIFO
                // order; a single Drain event serves the queue.
                let slot = dst.idx() * self.workers + worker;
                if self.busy_until[slot] > self.now || !self.waiting[slot].is_empty() {
                    if self.waiting[slot].len() >= self.cfg.recv_queue_cap {
                        // UD receive-queue overflow: the datagram is lost.
                        self.deliveries_pending -= 1;
                        self.dropped += 1;
                        return true;
                    }
                    self.waiting[slot].push_back((src, mepoch, msgs));
                    self.ensure_drain(dst, worker);
                    return true;
                }
                self.process_envelope(dst, worker, src, mepoch, msgs);
            }
            EventKind::Drain { node, worker } => {
                let slot = node.idx() * self.workers + worker;
                self.drain_scheduled[slot] = false;
                if self.crashed[node.idx()] {
                    // drop the whole backlog at a dead node
                    let n = self.waiting[slot].len();
                    self.waiting[slot].clear();
                    self.deliveries_pending -= n;
                    return true;
                }
                let wake = self.wake_at[node.idx()];
                if wake > self.now {
                    self.drain_scheduled[slot] = true;
                    self.push(wake, EventKind::Drain { node, worker });
                    return true;
                }
                if self.busy_until[slot] > self.now {
                    self.drain_scheduled[slot] = true;
                    self.push(self.busy_until[slot], EventKind::Drain { node, worker });
                    return true;
                }
                if let Some((src, mepoch, msgs)) = self.waiting[slot].pop_front() {
                    self.process_envelope(node, worker, src, mepoch, msgs);
                }
                self.ensure_drain(node, worker);
            }
            EventKind::Tick { node, worker } => {
                if self.crashed[node.idx()] {
                    return true; // crashed nodes stop ticking forever
                }
                let wake = self.wake_at[node.idx()];
                if wake > self.now {
                    self.push(wake, EventKind::Tick { node, worker });
                    return true;
                }
                let slot = node.idx() * self.workers + worker;
                if self.busy_until[slot] > self.now {
                    self.push(self.busy_until[slot], EventKind::Tick { node, worker });
                    return true;
                }
                let mut out = std::mem::replace(&mut self.scratch, Outbox::new(0));
                self.actors[node.idx()][worker].on_tick(self.now, &mut out);
                self.route(node, worker, &mut out);
                self.scratch = out;
                let next = self.now + self.cfg.tick_ns;
                self.push(next, EventKind::Tick { node, worker });
            }
        }
        true
    }

    fn route(&mut self, src: NodeId, worker: usize, out: &mut Outbox<A::Msg>) {
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
                    self.post(src, worker, dst, stamp, std::mem::replace(&mut batch, rest));
                }
                if !batch.is_empty() {
                    self.post(src, worker, dst, stamp, batch);
                }
            } else {
                self.post(src, worker, dst, stamp, batch);
            }
        });
    }

    /// Post one envelope from `(src, worker)` to the fabric: charge the
    /// sender-side cost, roll the fault/jitter dice, schedule delivery (to
    /// the peered worker at `dst` — §6.3 worker peering).
    fn post(&mut self, src: NodeId, worker: usize, dst: NodeId, mepoch: u32, msgs: Vec<A::Msg>) {
        let slot = src.idx() * self.workers + worker;
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
        let jitter =
            if self.cfg.jitter_ns == 0 { 0 } else { self.rng.next_below(self.cfg.jitter_ns) };
        let latency = if dst == src {
            200 // loopback
        } else {
            self.cfg.base_latency_ns + jitter + link.extra_delay_ns
        };
        let t = self.now + latency;
        self.push(t, EventKind::Deliver { dst, worker, src, mepoch, msgs });
    }

    /// Run until virtual time passes `deadline_ns`.
    pub fn run_until(&mut self, deadline_ns: u64) {
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.time > deadline_ns {
                break;
            }
            self.step();
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
        loop {
            if self.deliveries_pending == 0
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
            match self.queue.peek() {
                Some(Reverse(ev)) if ev.time <= max_ns => {
                    self.step();
                }
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

        fn on_envelope(&mut self, src: NodeId, msgs: &mut Vec<u8>, _now: u64, out: &mut Outbox<u8>) {
            for m in msgs.drain(..) {
                if m == 0 {
                    out.send(src, 1);
                } else {
                    self.pongs += 1;
                }
            }
        }

        fn on_tick(&mut self, _now: u64, out: &mut Outbox<u8>) -> bool {
            if self.me == NodeId(0) && self.sent < self.to_send {
                self.sent += 1;
                out.broadcast(self.me, 0u8);
                true
            } else {
                false
            }
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

        fn on_envelope(&mut self, _src: NodeId, msgs: &mut Vec<u8>, _now: u64, _out: &mut Outbox<u8>) {
            self.got += msgs.len();
            msgs.clear();
        }

        fn on_tick(&mut self, _now: u64, out: &mut Outbox<u8>) -> bool {
            if self.me == NodeId(0) && !self.sent {
                self.sent = true;
                for i in 0..self.burst {
                    out.send(NodeId(1), i as u8);
                }
                true
            } else {
                false
            }
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
}
