//! Anti-entropy / read-repair: background convergence as a first-class
//! subsystem.
//!
//! The three protocols make completed operations *safe* (quorum-visible),
//! but a replica outside every quorum — asleep through a key's last commit
//! (§8.4), or simply on the losing end of sustained message loss once
//! retransmission for a finished round has stopped — is left behind when
//! the round ends. Nothing pushes a finished round's value to it; this
//! module is the one way it converges, independent of retransmission:
//!
//! * **Digest sweep** — once per `anti_entropy_interval_ns`, worker 0 of
//!   each node broadcasts one digest to every peer (`Arc`-shared across
//!   the unicasts), so any single fresh replica can repair a stale one. A
//!   digest is either the next `anti_entropy_chunk`-slot range of its
//!   store as `(key, packed Lc)` pairs ([`DigestChunk`]; slot indices are
//!   replica-local, so digests identify state by key, never by position)
//!   or a hash summary of the whole store — see "Two digest planes".
//! * **Diff** — the receiver compares each entry with its own store: if the
//!   sender is fresher it *pulls* ([`Msg::RepairReq`]); if the sender is
//!   stale it *pushes* its own value back ([`Msg::RepairVal`]). Both
//!   directions heal, so one sweep converges a pair regardless of which
//!   side diverged.
//! * **Repair** — [`Msg::RepairVal`] applies under the LLC-max rule
//!   (stale or duplicated repairs no-op) and advances the key's Paxos slot
//!   past the sender's decided prefix. Besides the sweep's own pulls and
//!   pushes, the only other sender is a proposer answering a `Lagging`
//!   promise, a repair the acceptor solicited. That the periodic sweep
//!   alone is sufficient is what `tests/antientropy.rs` proves. An
//!   acceptor's `AlreadyCommitted` catch-up is the same [`Repair`], built
//!   by [`Repair::of`] and applied by [`Repair::apply`] like every other.
//!
//! No anti-entropy message is acked or retransmitted: a lost digest or
//! repair is simply superseded by the next sweep. Repairs never touch a
//! key's epoch — an out-of-epoch key still requires a §4.2 quorum read
//! (one peer's value is not a quorum), so the fast/slow-path invariants
//! are untouched.
//!
//! # Interaction with quiescence
//!
//! The deterministic simulator declares quiescence when every actor is idle
//! and no deliveries are in flight; an unconditional periodic sweep would
//! keep the network busy forever. Sweeping therefore runs while the
//! worker's protocol state is active and for a **cool-down** of one Merkle
//! cycle (plus slack) afterwards; any repair activity re-arms the
//! cool-down. `Worker::is_idle` reports idle only once the cool-down has
//! lapsed, so `run_until_quiesce` additionally guarantees the final states
//! have been swept — replicas converge *before* quiescence, through the
//! sweep alone.

//! # Two digest planes, picked per sweep
//!
//! At production store sizes a flat sweep's digest *bytes* are O(store)
//! per cycle even when replicas are identical. The other plane is a
//! **summary** of the whole store folded from the KVS's incremental leaf
//! lattice (see `kite_kvs::store`): the top level of an implicit
//! [`FANOUT`]-ary tree over the leaf hashes, so one message of at most
//! `FANOUT` hashes covers every key. Receivers fold the same ranges
//! locally; a mismatched range is answered with [`Msg::MerkleReq`], whose
//! drill-down descends one level per round trip and bottoms out in a flat
//! per-leaf [`Msg::Digest`] — from there the per-key diff → pull/push →
//! repair machinery is shared, so every slot-advancement-with-evidence
//! invariant holds on both planes. Identical replicas exchange nothing but
//! the top summary: O(log store) digest bytes per sweep.
//!
//! Worker 0 picks the plane at every sweep from the node's **write churn**:
//! the writes its store applied since the previous sweep
//! (`StoreProbe::writes`). Below the lattice's leaf count it sends a
//! summary. At or above it, in expectation every leaf changed during the
//! interval, so a summary would mismatch everywhere and drill into
//! everything, while a flat chunk costs O(chunk) either way — it sends the
//! chunk. The sweep right after a wake (the first tick included) is flat
//! too: the node knows it is behind, and a flat chunk advertises its stale
//! clocks in one message, where a summary would wait for the persistence
//! filter's second mismatch and then a round trip per level. So a loaded
//! node sweeps flat and an idle one summarizes.
//!
//! Interior hashes are folded on demand (never stored); only leaves are
//! maintained, lock-free, by the store's write paths. A summary racing an
//! in-flight write sees a transient mismatch — the drill-down then ends in
//! an idempotent no-op repair, exactly like a flat digest racing a write.
//! Mismatch re-arms both ends' sweeps (the requester when it sends a
//! [`Msg::MerkleReq`], the responder when it receives one), which keeps
//! the *symmetric* heal live: keys only the requester holds are surfaced
//! by its own summaries at the responder, one sweep later. Matching
//! summaries re-arm nothing, so converged clusters still quiesce.

use std::sync::Arc;

use kite_common::{ClusterConfig, Key, Lc, NodeId};
use kite_kvs::Store;
use kite_simnet::{Outbox, Wakeup};

use crate::msg::{DigestChunk, MerkleSummary, Msg, Repair};
use crate::nodestate::NodeShared;
use crate::wire::{digest_wire_bytes, repair_wire_bytes, req_wire_bytes, summary_wire_bytes};
use crate::worker::Worker;

/// Children per interior node of the drill-down tree. It bounds every
/// summary's hash count and every drill-down's bucket count, which keeps
/// each Merkle message far inside the wire codec's per-collection bound.
const FANOUT: usize = 16;

/// Drill-down geometry: an implicit [`FANOUT`]-ary tree over the store's
/// `leaves` leaf hashes. Level 0 buckets are single leaves; a level-`l`
/// bucket covers `FANOUT^l` consecutive leaves. The leaf count follows from
/// the shared `keys`, so `(level, bucket)` names the same leaf range on
/// every replica.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MerkleGeom {
    /// Leaf count of the local store's lattice.
    leaves: usize,
    /// The level the sweep summarizes at: the smallest level with at most
    /// `FANOUT` buckets, so the whole store fits one summary message.
    top_level: u8,
}

impl MerkleGeom {
    fn new(leaves: usize) -> Self {
        let mut geom = MerkleGeom { leaves, top_level: 0 };
        while geom.buckets_at(geom.top_level) > FANOUT {
            geom.top_level += 1;
        }
        geom
    }

    /// Number of buckets at `level`.
    fn buckets_at(&self, level: u8) -> usize {
        let width = (FANOUT as u128).saturating_pow(level as u32);
        ((self.leaves as u128).div_ceil(width).max(1)) as usize
    }

    /// The leaf range `[lo, hi)` a `(level, bucket)` covers (clamped).
    fn leaf_range(&self, level: u8, bucket: usize) -> (usize, usize) {
        let width = (FANOUT as u128).saturating_pow(level as u32);
        let lo = (bucket as u128).saturating_mul(width).min(self.leaves as u128) as usize;
        let hi = (bucket as u128 + 1).saturating_mul(width).min(self.leaves as u128) as usize;
        (lo, hi)
    }
}

/// Per-worker anti-entropy state. Only worker 0 of a node sweeps (one
/// digest stream per node, not per worker — though its idleness tracking
/// watches the whole node's completion counter); every worker answers
/// repair traffic.
pub(crate) struct AeState {
    /// This worker emits digest sweeps (`cfg.anti_entropy` && worker 0).
    sweep: bool,
    /// Sweep cadence (ns).
    interval: u64,
    /// Idle-time keepalive cadence (ns), `0` = off: after the cool-down
    /// has lapsed (`done`), keep emitting one digest per this
    /// interval so a replica that diverged while *idle* converges at heal
    /// time instead of on the next activity. Deliberately ignored by
    /// [`AeState::quiescent`]: the keepalive is a steady background
    /// trickle, not outstanding work (sims that enable it never quiesce —
    /// which is why it defaults off).
    keepalive: u64,
    /// Store slots per flat digest.
    chunk: usize,
    /// Cool-down after the worker goes protocol-idle: one Merkle cycle plus
    /// slack, so everything written before idling is summarized (and
    /// drilled into) at least once more.
    cooldown: u64,
    /// Next store slot to digest (wraps).
    cursor: usize,
    /// Time of the last sweep.
    last_sweep: u64,
    /// Time of the last `ae_on_tick`; `0` until the first (a worker's first
    /// tick counts as a wake-up — see `ae_on_tick`).
    last_tick: u64,
    /// The deadline the last `ae_on_tick` asked for. Ticks arrive when
    /// something is due, not on a beat, so a long gap between two of them
    /// says nothing; a tick that comes long *after the one this state asked
    /// for* means the worker just woke from a §8.4 sleep (or a similar
    /// scheduling blackout) and must assume divergence.
    deadline: u64,
    /// Node-wide completion count at the last tick: sibling workers share
    /// the store this worker sweeps, so *their* activity must hold the
    /// sweep open too, not just this worker's own sessions.
    last_completed: u64,
    /// Remaining post-wake resync pings (empty digests that re-arm peers'
    /// sweeps). A replica that slept through a key's *first* write holds
    /// no slot to advertise it from, so its own data digests cannot
    /// surface that gap — only a full cycle of peer digests can. Several
    /// are sent so a lossy link cannot eat the only copy. Summaries do not
    /// replace the ping: a sleeper's stale lattice *does* mismatch peers'
    /// summaries, but only while their sweeps are armed — the ping is what
    /// re-arms them.
    pings: u8,
    /// The store's applied-write count at the previous sweep; `None` after
    /// a wake (and at birth), when the node cannot tell what it missed.
    last_writes: Option<u64>,
    /// The last sweep's write churn (`None`: the sweep after a wake),
    /// which picked its plane (see [`AeState::summarizes`]).
    churn: Option<u64>,
    /// Drill-down persistence filter: per-source, the top-level buckets
    /// that mismatched on that peer's *previous* sweep summary. A
    /// top-level mismatch triggers a drill-down only when the same bucket
    /// mismatched on two consecutive sweeps — real divergence is sticky
    /// (nothing repairs it between sweeps), while a summary racing an
    /// in-flight write is transient and (almost always) lands elsewhere
    /// next sweep. Cuts the drill-down churn traffic of active workloads
    /// without touching steady state (converged replicas mismatch
    /// nothing) or liveness (a mismatch always re-arms the sweep, so the
    /// confirming summary is at most one interval away). Indexed by
    /// source node; drill-down child summaries (level < top) bypass the
    /// filter — they are already confirmed divergence.
    prev_mismatch: Vec<Vec<u32>>,
    /// Drill-down geometry of this node's lattice.
    geom: MerkleGeom,
    /// When the node last transitioned to idle (`None` while active).
    idle_since: Option<u64>,
    /// Cool-down lapsed: stop sweeping, report idle. Always `true` for
    /// non-sweeping workers.
    done: bool,
}

impl AeState {
    pub(crate) fn new(cfg: &ClusterConfig, wid: usize, store: &Store) -> Self {
        let sweep = cfg.anti_entropy && wid == 0;
        let interval = cfg.anti_entropy_interval_ns;
        let geom = MerkleGeom::new(store.merkle_leaves());
        // Cool-down: everything written before idling must be summarized
        // and drilled into at least once more — an idle node's churn is
        // below the leaf count, so it sweeps with summaries. A Merkle cycle
        // is a single summary plus one drill-down round trip per level:
        // budget one interval per level plus slack, plus one more interval
        // for the persistence filter's confirming sweep (a drill-down
        // starts only on the second consecutive mismatch).
        let cycle = (geom.top_level as u64 + 3) * interval;
        AeState {
            sweep,
            interval,
            keepalive: cfg.anti_entropy_keepalive_ns,
            chunk: cfg.anti_entropy_chunk.max(1),
            cooldown: cycle + 2 * interval,
            cursor: 0,
            last_sweep: 0,
            last_tick: 0,
            deadline: Wakeup::NEVER,
            last_completed: 0,
            pings: 0,
            last_writes: None,
            churn: None,
            prev_mismatch: vec![Vec::new(); cfg.nodes],
            geom,
            idle_since: None,
            done: !sweep,
        }
    }

    /// Repair-relevant activity observed: re-arm the cool-down so the next
    /// full cycle can confirm convergence.
    #[inline]
    fn rearm(&mut self) {
        if self.sweep {
            self.idle_since = None;
            self.done = false;
        }
    }

    /// Does the last sweep's churn pick a Merkle summary over a flat chunk?
    /// Only below the leaf count: at or above it, in expectation every leaf
    /// changed since the previous sweep (see the module docs).
    #[inline]
    fn summarizes(&self) -> bool {
        self.churn.is_some_and(|c| c < self.geom.leaves as u64)
    }

    /// Has the sweep wound down (for `Worker::is_idle`)?
    #[inline]
    pub(crate) fn quiescent(&self) -> bool {
        self.done
    }

    /// One-line state summary for the watchdog dump.
    pub(crate) fn describe(&self) -> String {
        format!(
            "sweep={} done={} cursor={} last_sweep={} last_tick={} deadline={} idle_since={:?} \
             interval={} keepalive={} chunk={} cooldown={} plane={} churn={:?} suspect_buckets={} \
             geom={:?}",
            self.sweep,
            self.done,
            self.cursor,
            self.last_sweep,
            self.last_tick,
            self.deadline,
            self.idle_since,
            self.interval,
            self.keepalive,
            self.chunk,
            self.cooldown,
            if self.summarizes() { "merkle" } else { "flat" },
            self.churn,
            self.prev_mismatch.iter().map(|v| v.len()).sum::<usize>(),
            self.geom,
        )
    }
}

impl Worker {
    /// Protocol-level idleness (sessions + in-flight), ignoring the
    /// anti-entropy cool-down.
    #[inline]
    pub(crate) fn protocol_idle(&self) -> bool {
        self.inflight.is_empty() && self.sessions.iter().all(|s| s.is_idle())
    }

    /// Anti-entropy scheduling, called from every tick: track idleness,
    /// run the cool-down, and emit one digest per interval while active.
    /// Returns when it next has something due (`Wakeup::NEVER` once the
    /// sweep has wound down with no keepalive configured).
    pub(crate) fn ae_on_tick(&mut self, now: u64, out: &mut Outbox<Msg>) -> u64 {
        if !self.ae.sweep {
            return Wakeup::NEVER;
        }
        self.ae_sweep(now, out);
        self.ae.deadline = self.ae_next_due(now);
        self.ae.deadline
    }

    /// When the sweep state next needs a tick, given what `ae_sweep` just
    /// left behind.
    fn ae_next_due(&self, now: u64) -> u64 {
        let ae = &self.ae;
        if ae.done {
            // Wound down: only the keepalive trickle is left, if any.
            return match ae.keepalive {
                0 => Wakeup::NEVER,
                k => ae.last_sweep + k.max(ae.interval),
            };
        }
        let sweep = ae.last_sweep + ae.interval;
        match ae.idle_since {
            Some(t) => sweep.min(t + ae.cooldown),
            // Protocol-idle but the cool-down clock has not started: this
            // tick saw a completion land. The clock starts at the first
            // tick that sees none, so ask for the next one.
            None if self.protocol_idle() => now + 1,
            None => sweep,
        }
    }

    fn ae_sweep(&mut self, now: u64, out: &mut Outbox<Msg>) {
        // A tick long after the one asked for means this worker just woke
        // from a §8.4-style sleep: the cluster moved on without it (and its
        // cool-down clock ran while it was blacked out), so assume
        // divergence and sweep a fresh full cycle — its digests advertise
        // the stale clocks and any fresh peer pushes repairs back. The
        // very first tick counts as a wake too: a replica that slept from
        // birth never asked for anything, and the worst a spurious
        // birth-time resync costs is a few empty pings.
        let overslept = now.saturating_sub(self.ae.deadline) > 4 * self.ae.interval;
        if self.ae.last_tick == 0 || overslept {
            self.ae.rearm();
            self.ae.idle_since = Some(now);
            self.ae.pings = 3;
            self.ae.last_writes = None;
        }
        self.ae.last_tick = now;
        // Node-level activity: this worker's own sessions/in-flight, plus
        // any sibling worker completing an op against the shared store
        // (visible as a completion-counter move). Either re-arms the sweep
        // — including from a lapsed `done` state, so a cluster that goes
        // idle and later resumes serving sweeps again.
        let completed = self.shared.counters.completed.get();
        let siblings_moved = completed != self.ae.last_completed;
        self.ae.last_completed = completed;
        if !self.protocol_idle() || siblings_moved {
            self.ae.idle_since = None;
            self.ae.done = false;
        } else if self.ae.done {
            // Wound down. With a keepalive configured, fall through to emit
            // one digest per keepalive interval (a summary, since an idle
            // store barely churns; at the keepalive cadence, not the
            // active-sweep cadence) — `done` stays set, so quiescence
            // reporting is untouched; real divergence surfaced by the
            // digest re-arms the full sweep via the repair path.
            if self.ae.keepalive == 0
                || now.saturating_sub(self.ae.last_sweep) < self.ae.keepalive
            {
                return;
            }
        } else {
            match self.ae.idle_since {
                None => self.ae.idle_since = Some(now),
                Some(t) if now.saturating_sub(t) >= self.ae.cooldown => {
                    self.ae.done = true;
                    return;
                }
                Some(_) => {}
            }
        }
        if now.saturating_sub(self.ae.last_sweep) < self.ae.interval {
            return;
        }
        self.ae.last_sweep = now;
        // Post-wake resync ping: an *empty* digest (ordinary sweeps never
        // broadcast empty ranges) telling peers "I was gone — sweep a full
        // cycle at me". Their digests then carry every key this replica
        // may be missing, including keys it has no slot for — which its
        // own data digests could never advertise.
        // Anti-entropy reaches *members* — voters and learners alike: the
        // sweep is exactly how a learner catches up, so it must not be
        // restricted to the voter set the protocol rounds use.
        let members = self.members().minus(kite_common::NodeSet::singleton(self.me));
        let peers = members.len() as u64;
        if peers == 0 {
            return;
        }
        if self.ae.pings > 0 {
            self.ae.pings -= 1;
            let c = &self.shared.counters;
            c.ae_digests_sent.add(peers);
            c.ae_digest_bytes.add(digest_wire_bytes(0) * peers);
            out.multicast(self.me, members, Msg::Digest { d: Arc::new(DigestChunk { entries: Vec::new() }) });
        }
        // Pick the plane from the writes applied since the previous sweep
        // (see the module docs); the sweep after a wake has no baseline.
        let writes = self.shared.store_probe.writes.get();
        self.ae.churn = self.ae.last_writes.map(|w| writes - w);
        self.ae.last_writes = Some(writes);
        if self.ae.summarizes() {
            // One top-level lattice summary covers the whole store —
            // O(FANOUT) hashes per interval, whatever the store size.
            // Divergence surfaces as a range mismatch at a receiver, which
            // drills down via `MerkleReq`.
            let geom = self.ae.geom;
            let top = geom.top_level;
            let store = &self.shared.store;
            let hashes: Vec<u64> = (0..geom.buckets_at(top))
                .map(|b| {
                    let (lo, hi) = geom.leaf_range(top, b);
                    store.fold_leaves(lo, hi)
                })
                .collect();
            let c = &self.shared.counters;
            c.ae_summaries_sent.add(peers);
            c.ae_digest_bytes.add(summary_wire_bytes(hashes.len()) * peers);
            let s = Arc::new(MerkleSummary { level: top, start: 0, hashes });
            out.multicast(self.me, members, Msg::MerkleSummary { s });
            return;
        }
        let mut entries = Vec::new();
        self.ae.cursor =
            self.shared.store.digest_range(self.ae.cursor, self.ae.chunk, &mut entries);
        if entries.is_empty() {
            return; // nothing live in this range; cursor still advanced
        }
        // Broadcast: any single fresh peer can then repair a stale one, so
        // one full cycle after the last write every divergence has been
        // diffed against every replica. The `Arc` payload makes the N−1
        // unicasts refcount bumps.
        let c = &self.shared.counters;
        c.ae_digests_sent.add(peers);
        c.ae_digest_keys.add(entries.len() as u64 * peers);
        c.ae_digest_bytes.add(digest_wire_bytes(entries.len()) * peers);
        out.multicast(self.me, members, Msg::Digest { d: Arc::new(DigestChunk { entries }) });
    }

    /// A peer's Merkle summary arrived: fold the same lattice ranges
    /// locally and ask for a drill-down on every mismatch. Matching ranges
    /// generate no traffic and no re-arm — two converged replicas exchange
    /// exactly one summary per interval while their sweeps wind down.
    pub(crate) fn on_merkle_summary(
        &mut self,
        src: NodeId,
        s: Arc<MerkleSummary>,
        out: &mut Outbox<Msg>,
    ) {
        let geom = self.ae.geom;
        if s.level > geom.top_level {
            return; // geometry mismatch (or a malformed peer): ignore
        }
        let buckets = geom.buckets_at(s.level);
        let store = &self.shared.store;
        let mut mismatched: Vec<u32> = Vec::new();
        for (i, &hash) in s.hashes.iter().enumerate() {
            let Some(b) = (s.start as usize).checked_add(i) else { break };
            if b >= buckets {
                break;
            }
            let (lo, hi) = geom.leaf_range(s.level, b);
            if store.fold_leaves(lo, hi) != hash {
                mismatched.push(b as u32);
            }
        }
        if mismatched.is_empty() {
            if s.level == geom.top_level {
                // Converged with this peer: drop any pending suspicion so a
                // later transient mismatch starts the two-sweep count fresh.
                self.ae.prev_mismatch[src.idx()].clear();
            }
            return;
        }
        // Divergence (or an in-flight write) somewhere under these ranges:
        // keep our own sweep armed so the symmetric direction — keys only
        // *we* hold — reaches the peer via our summaries too. Re-arming
        // happens even when the persistence filter below withholds the
        // drill-down: the confirming sweep is what the re-arm buys.
        self.ae.rearm();
        if s.level == geom.top_level {
            // Persistence filter (see `AeState::prev_mismatch`): drill only
            // into buckets that also mismatched on this peer's previous
            // sweep; remember the full set as next sweep's suspicion.
            let prev = std::mem::replace(&mut self.ae.prev_mismatch[src.idx()], mismatched);
            mismatched = self.ae.prev_mismatch[src.idx()]
                .iter()
                .copied()
                .filter(|b| prev.contains(b))
                .collect();
            if mismatched.is_empty() {
                return;
            }
        }
        let c = &self.shared.counters;
        c.ae_merkle_reqs.incr();
        c.ae_digest_bytes.add(req_wire_bytes(mismatched.len()));
        out.send(src, Msg::MerkleReq { level: s.level, buckets: mismatched.into() });
    }

    /// A peer drilled into our summary: answer each mismatched bucket with
    /// its child-level summary, or — at the leaf level — with the flat
    /// `(key, Lc)` digest of that leaf, handing the diff to the unchanged
    /// per-key repair machinery.
    pub(crate) fn on_merkle_req(
        &mut self,
        src: NodeId,
        level: u8,
        buckets: Arc<[u32]>,
        out: &mut Outbox<Msg>,
    ) {
        let geom = self.ae.geom;
        if level > geom.top_level {
            return;
        }
        // A drill-down proves a peer sees divergence with us: keep sweeping
        // until a full summary round confirms convergence.
        self.ae.rearm();
        let nb = geom.buckets_at(level);
        let store = &self.shared.store;
        if level == 0 {
            // Bottom out: flat digest of the requested leaves, split into
            // multiple chunks if a big-leaf config would overflow one
            // message's wire-side collection bound (`wire::MAX_SEQ`) —
            // a frame the receive gate rejects poisons the link. Empty
            // leaves are skipped — an empty digest is the resync ping, and
            // the "sender holds nothing" direction is healed by our own
            // summaries mismatching at the peer instead.
            let chunk_cap = crate::wire::MAX_SEQ / 2;
            let mut entries: Vec<(Key, Lc)> = Vec::new();
            let mut flush = |entries: &mut Vec<(Key, Lc)>| {
                if entries.is_empty() {
                    return;
                }
                let c = &self.shared.counters;
                c.ae_digests_sent.incr();
                c.ae_digest_keys.add(entries.len() as u64);
                c.ae_digest_bytes.add(digest_wire_bytes(entries.len()));
                out.send(
                    src,
                    Msg::Digest { d: Arc::new(DigestChunk { entries: std::mem::take(entries) }) },
                );
            };
            for &b in buckets.iter() {
                if (b as usize) < nb {
                    store.digest_leaf(b as usize, &mut entries);
                    if entries.len() >= chunk_cap {
                        flush(&mut entries);
                    }
                }
            }
            flush(&mut entries);
            return;
        }
        for &b in buckets.iter() {
            let b = b as usize;
            if b >= nb {
                continue; // malformed peer: out-of-range bucket
            }
            let child_level = level - 1;
            let child_base = b * FANOUT;
            let n = FANOUT.min(geom.buckets_at(child_level).saturating_sub(child_base));
            if n == 0 {
                continue;
            }
            let hashes: Vec<u64> = (0..n)
                .map(|i| {
                    let (lo, hi) = geom.leaf_range(child_level, child_base + i);
                    store.fold_leaves(lo, hi)
                })
                .collect();
            let c = &self.shared.counters;
            c.ae_summaries_sent.incr();
            c.ae_digest_bytes.add(summary_wire_bytes(hashes.len()));
            out.send(
                src,
                Msg::MerkleSummary {
                    s: Arc::new(MerkleSummary {
                        level: child_level,
                        start: child_base as u32,
                        hashes,
                    }),
                },
            );
        }
    }

    /// A peer's digest arrived: diff it against the local store, pull what
    /// the peer has fresher, push back what it holds stale.
    pub(crate) fn on_digest(&mut self, src: NodeId, d: Arc<DigestChunk>, out: &mut Outbox<Msg>) {
        if d.entries.is_empty() {
            // A post-wake resync ping: re-arm our sweep so a full cycle of
            // our digests reaches the sender — it may hold no slot for the
            // very keys it slept through, so only our side can surface
            // them. One-shot per ping (ordinary digests re-arm only on an
            // actual diff), so mutual sweeps still wind down.
            self.ae.rearm();
            return;
        }
        let mut pull: Vec<Key> = Vec::new();
        for &(key, lc) in &d.entries {
            // Non-claiming probe: a digest mentioning a key we never
            // touched must not allocate a slot here — we only adopt the
            // key if a repair actually delivers a value for it.
            match self.shared.store.probe_lc(key) {
                None if lc > Lc::ZERO => pull.push(key),
                None => {} // both sides hold nothing: no information
                Some(local) if local < lc => pull.push(key),
                Some(local) if local > lc => {
                    // The *sender* is behind: push our value straight back.
                    send_repair(&self.shared, src, key, out);
                    self.ae.rearm();
                }
                Some(_) => {} // equal: converged
            }
        }
        if !pull.is_empty() {
            self.shared.counters.ae_repair_reqs.incr();
            self.ae.rearm();
            out.send(src, Msg::RepairReq { keys: pull.into_boxed_slice() });
        }
    }

    /// A repair pull: answer with our current value (plus Paxos slot and
    /// ring evidence) for each requested key. Fire-and-forget — a lost
    /// answer is re-pulled on a later sweep.
    pub(crate) fn on_repair_req(&mut self, src: NodeId, keys: Box<[Key]>, out: &mut Outbox<Msg>) {
        for &key in keys.iter() {
            send_repair(&self.shared, src, key, out);
        }
    }

    /// A repaired value (see [`Repair::apply`]): counted, and the sweep
    /// re-armed, when it healed real divergence.
    pub(crate) fn on_repair_val(&mut self, r: Box<Repair>) {
        if r.apply(&self.shared.store) {
            self.shared.counters.ae_repairs_applied.incr();
            self.ae.rearm();
        }
    }
}

impl Repair {
    /// `key`'s repair as `store` holds it: the `(slot, ring)` evidence
    /// pair read under one lock, then the value — evidence before value,
    /// so a racing commit can only make the value *fresher* than the slot
    /// implies, never staler. A key that never carried an RMW reports slot
    /// 0 and an empty ring without allocating its Paxos structure. The one
    /// place a `Repair` is built (the decoder aside).
    pub(crate) fn of(store: &Store, key: Key) -> Box<Repair> {
        let (slot, ring) = store.paxos_evidence(key);
        let view = store.view(key);
        Box::new(Repair { key, val: view.val, lc: view.lc, slot, ring })
    }

    /// Apply a repair: merge the dedup evidence and advance the slot
    /// *first* (one lock), then apply the value under LLC-max (idempotent;
    /// stale repairs no-op; the epoch is deliberately untouched). Evidence
    /// before value, so a decide on a sibling worker that observes the
    /// repaired value is guaranteed to find the ring entries behind it —
    /// a ring-less slot/value advance is exactly what let a strong CAS
    /// fail against its own committed value (see [`Repair::ring`]). A
    /// repair without evidence allocates no Paxos structure. Returns
    /// whether the value advanced the store.
    pub(crate) fn apply(&self, store: &Store) -> bool {
        if self.slot > 0 || !self.ring.is_empty() {
            store.paxos(self.key).lock().merge_evidence(&self.ring, self.slot);
        }
        store.apply_max(self.key, &self.val, self.lc)
    }
}

/// Send `dst` one repair for `key` and count it: anti-entropy pull answers
/// and pushes, and a proposer's answer to a `Lagging` promise.
pub(crate) fn send_repair(shared: &NodeShared, dst: NodeId, key: Key, out: &mut Outbox<Msg>) {
    let r = Repair::of(&shared.store, key);
    shared.counters.ae_repair_vals.incr();
    shared.counters.ae_repair_bytes.add(repair_wire_bytes(&r));
    out.send(dst, Msg::RepairVal { r });
}
