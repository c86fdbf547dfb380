//! Per-peer link state: what the watchdog sees when a connection dies.
//!
//! Every `(peer node, worker)` pair owns one [`LinkState`]: the worker's
//! event loop flips it between connected and backoff as the TCP connection
//! lives and dies, both directions count frames, and the bounded outbound
//! ring publishes its occupancy and shed count here. A peer connection
//! dying mid-batch (or stalling and forcing sheds) therefore *surfaces* —
//! in [`LinkTable::describe`], printed by the node watchdog next to the
//! workers' `Actor::describe` dumps — instead of silently stalling
//! retransmissions until someone attaches strace.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

use kite_common::rng::SplitMix64;
use kite_common::NodeId;

/// Connection phase of one outbound link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkPhase {
    /// Never connected yet (still dialing for the first time).
    Connecting,
    /// Connected; frames flow.
    Connected,
    /// Lost the connection (or the dial failed); redialing with backoff.
    Backoff,
}

impl LinkPhase {
    fn from_u8(v: u8) -> LinkPhase {
        match v {
            1 => LinkPhase::Connected,
            2 => LinkPhase::Backoff,
            _ => LinkPhase::Connecting,
        }
    }
}

/// State + counters of one `(peer, worker)` link, shared between the
/// worker's event loop (which owns the socket) and diagnostics.
#[derive(Default)]
pub struct LinkState {
    phase: AtomicU8,
    /// Frames successfully written to the peer.
    pub frames_out: AtomicU64,
    /// Frames received and decoded from the peer.
    pub frames_in: AtomicU64,
    /// Outbound frames dropped because the link was down or lost them to
    /// [`LinkTable::set_drop`] (the protocol's retransmission layer
    /// recovers these, exactly like a lossy fabric).
    pub dropped_out: AtomicU64,
    /// Inbound connections closed because a frame failed to decode — a
    /// malformed peer costs itself the connection, never the worker.
    pub decode_errors: AtomicU64,
    /// Successful (re)connections.
    pub connects: AtomicU64,
    /// Outbound frames shed because the bounded ring was full — the
    /// backpressure signal of a peer that stopped reading. Retransmission
    /// recovers these once the peer drains again.
    pub shed_full: AtomicU64,
    /// Gauge: frames currently queued in the outbound ring.
    pub ring_frames: AtomicU64,
    /// Gauge: bytes currently queued in the outbound ring.
    pub ring_bytes: AtomicU64,
    /// Wall-clock ns of the last inbound readiness on this link (0 = never).
    pub last_rx_ns: AtomicU64,
    /// Wall-clock ns of the last completed socket write (0 = never).
    pub last_tx_ns: AtomicU64,
    /// Injected loss: the probability that an outbound envelope is dropped
    /// before it is framed, in units of 1/2^32 (0 = reliable, `u32::MAX` =
    /// cut) — fixed-point on an atomic so the flush path takes no lock.
    drop_fp: AtomicU32,
}

impl LinkState {
    /// Current phase.
    // ordering: monitoring read of a standalone flag; no payload is
    // published through it, so Relaxed cannot reorder anything that matters.
    pub fn phase(&self) -> LinkPhase {
        LinkPhase::from_u8(self.phase.load(Ordering::Relaxed))
    }

    /// `(name, reading)` of every scrape key (`link_n<i>_w<j>_<name>`); the
    /// phase reads as its discriminant. `last_rx_ns`/`last_tx_ns` are
    /// wall-clock stamps for the dump, not scrape keys.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        // ordering: Relaxed — monitoring reads of monotone counters and
        // gauges whose only writers are the worker loops; a stale value is
        // a slightly old number, never a broken invariant.
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        [
            ("frames_out", get(&self.frames_out)),
            ("frames_in", get(&self.frames_in)),
            ("dropped_out", get(&self.dropped_out)),
            ("shed_full", get(&self.shed_full)),
            ("decode_errors", get(&self.decode_errors)),
            ("connects", get(&self.connects)),
            ("ring_frames", get(&self.ring_frames)),
            ("ring_bytes", get(&self.ring_bytes)),
            ("phase", self.phase() as u64),
        ]
    }

    /// Is the outbound connection currently up?
    // ordering: advisory fast-path check — a stale read only means one more
    // frame queued to a dying link, which the drop counters then record.
    #[inline]
    pub fn is_connected(&self) -> bool {
        self.phase.load(Ordering::Relaxed) == 1
    }

    // ordering: the loop that flips the phase is the only writer and owns
    // the socket; readers are diagnostics and the advisory enqueue check.
    // Relaxed flips cannot race anything correctness-bearing.
    pub(crate) fn set_connected(&self) {
        self.phase.store(1, Ordering::Relaxed);
        self.connects.fetch_add(1, Ordering::Relaxed);
    }

    // ordering: same single-writer advisory flag as set_connected.
    pub(crate) fn set_backoff(&self) {
        self.phase.store(2, Ordering::Relaxed);
    }

    /// Make the link lose each outbound envelope with probability `p`
    /// (clamped to `[0, 1]`; `0` heals it).
    // ordering: a standalone knob read once per envelope; a flush that
    // sees the old value a moment longer only loses (or keeps) one more.
    pub(crate) fn set_drop(&self, p: f64) {
        self.drop_fp.store((p.clamp(0.0, 1.0) * u32::MAX as f64) as u32, Ordering::Relaxed);
    }

    /// Should the next outbound envelope be lost? Draws from `rng` only
    /// while a loss probability is set.
    // ordering: see set_drop.
    // kite-lint: no-alloc
    #[inline]
    pub(crate) fn drops(&self, rng: &mut SplitMix64) -> bool {
        let fp = self.drop_fp.load(Ordering::Relaxed);
        fp != 0 && (rng.next_u64() >> 32) as u32 <= fp
    }
}

/// All of one node's links, indexed `[peer][worker]` (the `me` row exists
/// but stays `Connecting` forever — self-delivery never touches a socket).
pub struct LinkTable {
    me: NodeId,
    links: Vec<Vec<LinkState>>,
}

impl LinkTable {
    pub(crate) fn new(me: NodeId, nodes: usize, workers: usize) -> LinkTable {
        LinkTable {
            me,
            links: (0..nodes)
                .map(|_| (0..workers).map(|_| LinkState::default()).collect())
                .collect(),
        }
    }

    /// The link to `(peer, worker)`.
    #[inline]
    pub fn link(&self, peer: NodeId, worker: usize) -> &LinkState {
        &self.links[peer.idx()][worker]
    }

    /// Make every worker's link to `peer` lose each outbound envelope with
    /// probability `p` (clamped to `[0, 1]`; `0` heals). The §8.4
    /// lossy-link fault, one direction: a lost envelope never reaches the
    /// wire and counts on the row's `dropped_out`, like one sent while the
    /// link is down. A runtime call: the link stays up, only its envelopes
    /// are lost.
    pub fn set_drop(&self, peer: NodeId, p: f64) {
        self.links[peer.idx()].iter().for_each(|l| l.set_drop(p));
    }

    /// Human-readable per-link dump for the watchdog / shutdown report: the
    /// phase by name, every other [`LinkState::fields`] reading, and the
    /// last-traffic stamps.
    // ordering: diagnostics snapshot — each counter is read independently;
    // cross-counter consistency is not promised, so Relaxed is exact enough.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "links of {}:", self.me);
        for (n, per_node) in self.links.iter().enumerate() {
            if n == self.me.idx() {
                continue;
            }
            for (w, l) in per_node.iter().enumerate() {
                let _ = write!(out, "  peer n{n} w{w}: {:?}", l.phase());
                for (name, v) in l.fields().into_iter().filter(|&(name, _)| name != "phase") {
                    let _ = write!(out, " {name}={v}");
                }
                let _ = writeln!(
                    out,
                    " last_rx_ns={} last_tx_ns={}",
                    l.last_rx_ns.load(Ordering::Relaxed),
                    l.last_tx_ns.load(Ordering::Relaxed),
                );
            }
        }
        out
    }
}

/// Event-loop health of one worker loop: what the loop does with its
/// wake-ups, as monotone counters. A pass is one trip round
/// `EventLoop::run`; it makes exactly one `epoll_wait`, which is a **wake**
/// when it delivers readiness, an **idle tick** when it blocks and times
/// out, and otherwise an empty follow-up pass — the waste the
/// park-at-quiescence rule bounds (`passes - wakes - idle_ticks`).
/// `reads`/`read_eagain`/`writevs` are the socket syscalls, so
/// `(epoll_waits + reads + writevs) / proto_completed` is syscalls per op.
/// The rest are numerator/denominator pairs of the loop's batching:
/// `writev_frames / writevs` is frames per `writev`, `envelope_msgs /
/// envelopes` msgs per envelope, `completions / pumps` completions per
/// pump.
#[derive(Default)]
pub struct LoopStats {
    /// Trips round the loop.
    pub passes: AtomicU64,
    /// `epoll_wait` calls.
    pub epoll_waits: AtomicU64,
    /// `epoll_wait` returns that delivered at least one readiness event.
    pub wakes: AtomicU64,
    /// Blocking `epoll_wait`s that timed out with nothing ready: the loop
    /// slept until its actor's next deadline (or a redial) and woke for it.
    pub idle_ticks: AtomicU64,
    /// `read` calls on the loop's peer, client and scrape connections.
    pub reads: AtomicU64,
    /// ... of which returned `EAGAIN` (a wasted syscall).
    pub read_eagain: AtomicU64,
    /// `writev` calls draining outbound rings.
    pub writevs: AtomicU64,
    /// Ring frames those `writev`s wrote out completely (a peer frame is
    /// one envelope; a client frame is one pump's completions).
    pub writev_frames: AtomicU64,
    /// Outbox envelopes flushed (to peer rings, dead links and the
    /// loopback queue alike) ...
    pub envelopes: AtomicU64,
    /// ... and the protocol messages in them.
    pub envelope_msgs: AtomicU64,
    /// `pump_completions` passes that moved at least one completion ...
    pub pumps: AtomicU64,
    /// ... and the completions they moved to client rings.
    pub completions: AtomicU64,
}

impl LoopStats {
    /// `(name, reading)` of every field, in render order — the scrape keys
    /// (`loop_w<j>_<name>`) and the dump line are both built from this.
    pub fn fields(&self) -> [(&'static str, u64); 12] {
        // ordering: Relaxed — diagnostics snapshot of independent monotone
        // counters, each with a single writer (its loop).
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        [
            ("passes", get(&self.passes)),
            ("epoll_waits", get(&self.epoll_waits)),
            ("wakes", get(&self.wakes)),
            ("idle_ticks", get(&self.idle_ticks)),
            ("reads", get(&self.reads)),
            ("read_eagain", get(&self.read_eagain)),
            ("writevs", get(&self.writevs)),
            ("writev_frames", get(&self.writev_frames)),
            ("envelopes", get(&self.envelopes)),
            ("envelope_msgs", get(&self.envelope_msgs)),
            ("pumps", get(&self.pumps)),
            ("completions", get(&self.completions)),
        ]
    }
}

/// Add `n` to a monitoring counter.
// ordering: Relaxed — loop-health and wake counters are statistics with a
// single writer thread each; nothing is published through them.
#[inline]
pub(crate) fn bump(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

/// One node's wake accounting: a [`LoopStats`] per worker loop — the
/// node's listeners ride worker 0's (the WAL flusher's lives in
/// `WalStats`).
pub struct FabricStats {
    /// Indexed by worker.
    pub loops: Vec<LoopStats>,
}

impl FabricStats {
    pub(crate) fn new(workers: usize) -> FabricStats {
        FabricStats { loops: (0..workers).map(|_| LoopStats::default()).collect() }
    }

    /// One line per worker loop, for the `dump` view.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (w, l) in self.loops.iter().enumerate() {
            let _ = write!(out, "loop w{w}:");
            for (name, v) in l.fields() {
                let _ = write!(out, " {name}={v}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_transition_and_describe() {
        let t = LinkTable::new(NodeId(0), 3, 2);
        let l = t.link(NodeId(1), 0);
        assert_eq!(l.phase(), LinkPhase::Connecting);
        assert!(!l.is_connected());
        l.set_connected();
        assert!(l.is_connected());
        l.set_backoff();
        assert_eq!(l.phase(), LinkPhase::Backoff);
        l.frames_in.fetch_add(3, Ordering::Relaxed);
        let d = t.describe();
        assert!(d.contains("Backoff"), "{d}");
        assert!(!d.contains("phase="), "the phase prints once, by name: {d}");
        assert!(d.contains("frames_in=3"), "{d}");
    }

    #[test]
    fn default_is_faultless() {
        let t = LinkTable::new(NodeId(0), 3, 1);
        let mut rng = SplitMix64::new(1);
        assert!((0..3).all(|n| !t.link(NodeId(n), 0).drops(&mut rng)));
        assert_eq!(rng.next_u64(), SplitMix64::new(1).next_u64(), "no coin drawn while reliable");
    }

    #[test]
    fn drop_probability_thresholds_coin() {
        let t = LinkTable::new(NodeId(0), 2, 2);
        t.link(NodeId(1), 0).set_drop(0.5);
        let mut rng = SplitMix64::new(7);
        let lost = (0..10_000).filter(|_| t.link(NodeId(1), 0).drops(&mut rng)).count();
        assert!((4_500..5_500).contains(&lost), "p = 0.5 lost {lost} of 10 000");
        // The other worker's row is untouched.
        assert!(!t.link(NodeId(1), 1).drops(&mut rng));
    }

    #[test]
    fn partition_and_heal() {
        let t = LinkTable::new(NodeId(0), 2, 1);
        let l = t.link(NodeId(1), 0);
        let mut rng = SplitMix64::new(3);
        l.set_drop(1.0);
        assert!((0..1_000).all(|_| l.drops(&mut rng)), "p = 1 cuts the link");
        l.set_drop(0.0);
        assert!((0..1_000).all(|_| !l.drops(&mut rng)), "p = 0 heals it");
    }
}
