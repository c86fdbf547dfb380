//! Per-node shared state: everything a Kite machine's workers share.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use kite_common::stats::ProtoCounters;
use kite_common::{ClusterConfig, Epoch, Membership, MembershipCell, NodeId, NodeSet, MEMBERSHIP_KEY};
use kite_kvs::{Store, StoreProbe};
use kite_metrics::{Histogram, Registry};

use crate::api::Op;
use crate::delinquency::DelinquencyTable;

/// Per-class end-to-end op latency, recorded at session retire (the moment
/// `Cx::deliver` hands a completion back): invoke-to-completion in
/// scheduler-clock ns, one lock-free log2 histogram per op class. Snapshots
/// merge across nodes/workers, so cluster-wide p50/p99/p999 per class come
/// straight out of a scrape.
#[derive(Default)]
pub struct OpLatency {
    /// Relaxed reads.
    pub read: Histogram,
    /// Relaxed writes.
    pub write: Histogram,
    /// Acquire-class ops (acquire reads).
    pub acquire: Histogram,
    /// Release-class ops (release writes).
    pub release: Histogram,
    /// Read-modify-writes (FAA, CAS weak/strong).
    pub rmw: Histogram,
}

impl OpLatency {
    /// The histogram an op retires into. RMWs classify first: a CAS is an
    /// RMW even though `CasStrong` is also release-like.
    #[inline]
    pub fn for_op(&self, op: &Op) -> &Histogram {
        if op.is_rmw() {
            &self.rmw
        } else if op.is_release_like() {
            &self.release
        } else if op.is_acquire_like() {
            &self.acquire
        } else if matches!(op, Op::Write { .. }) {
            &self.write
        } else {
            &self.read
        }
    }

    /// (name, histogram) pairs for registry/scrape wiring.
    pub fn classes(&self) -> [(&'static str, &Histogram); 5] {
        [
            ("read", &self.read),
            ("write", &self.write),
            ("acquire", &self.acquire),
            ("release", &self.release),
            ("rmw", &self.rmw),
        ]
    }
}

/// One Kite machine's shared state (Figure 2 of the paper): the KVS
/// replica, the machine epoch-id, and the delinquency bit-vector.
pub struct NodeShared {
    /// This node's id.
    pub me: NodeId,
    /// The deployment configuration.
    pub cfg: ClusterConfig,
    /// The node's replica of the entire KVS (§2.1: every machine holds the
    /// whole store in memory).
    pub store: Store,
    /// Machine epoch-id (§4.2): bumped when an acquire discovers this
    /// machine is delinquent; keys whose epoch lags are out-of-epoch.
    epoch: AtomicU64,
    /// Scheduler-clock time of the last epoch bump (see
    /// [`NodeShared::bump_epoch_once`]).
    last_bump: AtomicU64,
    /// Delinquency bits for every machine in the deployment (§4.2.1).
    pub delinquency: DelinquencyTable,
    /// Locally *suspected* replicas: a release timed out waiting for their
    /// acks recently and no message has arrived from them since. While a
    /// replica is suspected, releases take the slow-path barrier
    /// immediately instead of re-paying the ack timeout per release — this
    /// is what keeps the survivors' throughput up during the §8.4 sleep
    /// (the paper's Figure 9 shows per-node throughput *rising* while a
    /// replica sleeps, which is only possible if releases stop waiting for
    /// it). Suspicion is a performance hint only: the slow path is always
    /// the conservative, correct path.
    suspects: Vec<AtomicBool>,
    /// Bumped whenever the suspected set changes (see
    /// [`NodeShared::suspect_gen`]).
    suspect_gen: AtomicU64,
    /// Protocol/throughput counters (merged with the fabric's counts).
    pub counters: Arc<ProtoCounters>,
    /// Per-class op latency, recorded at session retire.
    pub op_latency: OpLatency,
    /// Store observability probe (writes + distinct-keys sketch); the same
    /// `Arc` is attached to [`NodeShared::store`], kept here so scrapers
    /// can read it without going through the store.
    pub store_probe: Arc<StoreProbe>,
    /// Live cluster membership (voters/learners + epoch). Seeded from the
    /// static config's bootstrap sets and thereafter installed through the
    /// store's watch on [`MEMBERSHIP_KEY`] — every path that applies that
    /// key (RMW commit, anti-entropy repair, WAL replay) lands here, which
    /// is exactly the set of paths that can legitimately learn a newer
    /// configuration.
    pub membership: Arc<MembershipCell>,
}

impl NodeShared {
    /// Build the shared state for node `me` (preallocates the KVS).
    pub fn new(me: NodeId, cfg: ClusterConfig, counters: Arc<ProtoCounters>) -> Arc<Self> {
        let store_probe = Arc::new(StoreProbe::default());
        let store = Store::new(cfg.keys);
        store.attach_probe(Arc::clone(&store_probe));
        let membership = Arc::new(MembershipCell::new(Membership::bootstrap(&cfg)));
        {
            // Config changes install at the store-apply choke point: any
            // mutator touching the membership key — commit, repair, replay —
            // feeds the cell. Decode failures (a foreign value under the
            // reserved key) are ignored; the cell only moves forward.
            let cell = Arc::clone(&membership);
            let installs = Arc::clone(&counters);
            store.attach_watch(
                MEMBERSHIP_KEY,
                Arc::new(move |_lc, val| {
                    if let Some(m) = Membership::from_val(val) {
                        if cell.install(m) {
                            installs.membership_installs.incr();
                        }
                    }
                }),
            );
        }
        Arc::new(NodeShared {
            me,
            store,
            epoch: AtomicU64::new(0),
            last_bump: AtomicU64::new(0),
            delinquency: DelinquencyTable::new(cfg.nodes),
            suspects: (0..cfg.nodes).map(|_| AtomicBool::new(false)).collect(),
            suspect_gen: AtomicU64::new(0),
            counters,
            op_latency: OpLatency::default(),
            store_probe,
            membership,
            cfg,
        })
    }

    /// Register the core layer's metrics — `proto_*`, `membership_*`,
    /// `store_*` and `op_<class>_latency_ns` — as readers of this node's
    /// live state. The daemon's scrape hub, [`crate::SimCluster`] and
    /// [`crate::Cluster`] all call this, so the three runtimes render the
    /// same keys from the same atomics.
    pub fn register_metrics(self: &Arc<Self>, reg: &Registry) {
        let s = Arc::clone(self);
        reg.poll_fields("proto_", move || s.counters.fields().map(|(name, c)| (name, c.get())));
        // The packed membership cell decomposes into three gauges so a
        // scrape delta shows a config change landing (epoch bumps) and a
        // learner promoting (voters gains a bit, learners loses it).
        let s = Arc::clone(self);
        reg.poll_fields("membership_", move || {
            let m = s.membership.load();
            [
                ("epoch", m.epoch as u64),
                ("voters", m.voters.0 as u64),
                ("learners", m.learners.0 as u64),
            ]
        });
        // `len` counts claimed slots (reads probing fresh keys claim too);
        // `vals` counts only value-bearing keys, which is the number
        // anti-entropy actually converges across replicas; `exts` counts
        // keys holding an extension (a value past 32 bytes, or an RMW);
        // `slots` is the slot array's length, 64 B each — most of a node's
        // resident memory.
        let s = Arc::clone(self);
        reg.poll_fields("store_", move || {
            [
                ("slots", s.store.capacity() as u64),
                ("len", s.store.len() as u64),
                ("vals", s.store.values() as u64),
                ("exts", s.store.exts() as u64),
                ("writes", s.store_probe.writes.get()),
                ("distinct_keys_est", s.store_probe.distinct_keys.estimate()),
            ]
        });
        for (i, (class, _)) in self.op_latency.classes().into_iter().enumerate() {
            let s = Arc::clone(self);
            reg.poll_histogram(&format!("op_{class}_latency_ns"), move || {
                s.op_latency.classes()[i].1.snapshot()
            });
        }
    }

    /// The core layer's metrics as `key value` text: what a daemon's scrape
    /// shows for this node, minus the transport's keys.
    pub fn metrics_text(self: &Arc<Self>) -> String {
        let reg = Registry::new();
        self.register_metrics(&reg);
        reg.render_to_string()
    }

    /// Mark a replica suspected (a release barrier timed out on it).
    // ordering: the flag itself is a hint (Relaxed, as before); the Release
    // bump pairs with the Acquire load in `suspect_gen`, so a worker that
    // sees the generation move also sees the flag that moved it.
    #[inline]
    pub fn suspect(&self, node: NodeId) {
        if !self.suspects[node.idx()].swap(true, Ordering::Relaxed) {
            self.suspect_gen.fetch_add(1, Ordering::Release);
        }
    }

    /// Any message from a replica proves it alive: clear its suspicion.
    // ordering: as in `suspect`.
    #[inline]
    pub fn clear_suspect(&self, node: NodeId) {
        if self.suspects[node.idx()].load(Ordering::Relaxed) {
            self.suspects[node.idx()].store(false, Ordering::Relaxed);
            self.suspect_gen.fetch_add(1, Ordering::Release);
        }
    }

    /// How many times the suspected set has changed. The set is shared by
    /// the node's workers, so a worker whose barriers depend on it compares
    /// this with the value it last acted on instead of re-reading the set
    /// on every step.
    // ordering: Acquire — pairs with the Release bumps above.
    #[inline]
    pub fn suspect_gen(&self) -> u64 {
        self.suspect_gen.load(Ordering::Acquire)
    }

    /// The currently suspected set.
    #[inline]
    pub fn suspected(&self) -> NodeSet {
        let mut s = NodeSet::EMPTY;
        for (i, b) in self.suspects.iter().enumerate() {
            if b.load(Ordering::Relaxed) {
                s.insert(NodeId(i as u8));
            }
        }
        s
    }

    /// Current machine epoch.
    #[inline]
    pub fn epoch(&self) -> Epoch {
        Epoch(self.epoch.load(Ordering::Acquire))
    }

    /// Increment the machine epoch (transition to the slow path, §4.2:
    /// every locally stored key becomes out-of-epoch at once) for an
    /// acquire that *started* at `invoked_at` (scheduler clock). Skipped if
    /// another acquire already bumped the epoch after this one began — that
    /// bump invalidated every key and thus already discharges this
    /// acquire's slow-path obligation (Lemma 5.4). Without
    /// this, a burst of concurrent acquires on a waking replica bumps the
    /// epoch hundreds of times, forcing each key through the slow path
    /// once *per bump* instead of once per outage.
    #[inline]
    pub fn bump_epoch_once(&self, invoked_at: u64, now: u64) -> bool {
        let last = self.last_bump.load(Ordering::Acquire);
        if last > invoked_at {
            return false;
        }
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.last_bump.store(now, Ordering::Release);
        self.counters.epoch_bumps.incr();
        true
    }

    /// Majority-quorum size over the **live voter set** — not the static
    /// config. A round that caches this across a reconfiguration would
    /// count replies against the wrong majority, which is exactly the bug
    /// the live cell exists to kill.
    #[inline]
    pub fn quorum(&self) -> usize {
        self.membership.load().quorum()
    }

    /// The live voter set (protocol rounds target these replicas).
    #[inline]
    pub fn voters(&self) -> NodeSet {
        self.membership.load().voters
    }

    /// Voters ∪ learners (anti-entropy targets all of them).
    #[inline]
    pub fn members(&self) -> NodeSet {
        self.membership.load().members()
    }

    /// Current membership epoch (stamped on every outgoing envelope).
    #[inline]
    pub fn mepoch(&self) -> u32 {
        self.membership.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> Arc<NodeShared> {
        NodeShared::new(
            NodeId(0),
            ClusterConfig::small(),
            Arc::new(ProtoCounters::default()),
        )
    }

    #[test]
    fn epoch_starts_at_zero_and_bumps() {
        let s = shared();
        assert_eq!(s.epoch(), Epoch(0));
        assert!(s.bump_epoch_once(0, 1));
        assert_eq!(s.epoch(), Epoch(1));
        assert_eq!(s.counters.epoch_bumps.get(), 1);
    }

    #[test]
    fn keys_fall_out_of_epoch_on_bump() {
        use kite_common::{Key, Val};
        let s = shared();
        // in-epoch write succeeds at epoch 0
        assert!(s.store.fast_write(Key(1), &Val::from_u64(1), s.me, s.epoch()).is_some());
        assert!(s.bump_epoch_once(0, 1));
        // the key's epoch (0) now lags the machine epoch (1): fast path refused
        assert!(s.store.fast_write(Key(1), &Val::from_u64(2), s.me, s.epoch()).is_none());
        // restoring brings it back
        s.store.restore_epoch(Key(1), s.epoch());
        assert!(s.store.fast_write(Key(1), &Val::from_u64(2), s.me, s.epoch()).is_some());
    }

    #[test]
    fn quorum_matches_config() {
        let s = shared();
        assert_eq!(s.quorum(), 2); // 3-node small config
    }
}
