//! Deployment configuration shared by Kite and the baseline systems.

use crate::nodeset::NodeSet;

/// Configuration of an in-process "datacenter" deployment.
///
/// Defaults mirror the paper's testbed (§7): 5 machines, the KVS holding
/// 1M keys, values of 32 bytes; and its system parameters (§8.4): a release
/// ack-gathering timeout overprovisioned to ~1 ms.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of replicas (3–9 in the paper; ≤ 16 here).
    pub nodes: usize,
    /// Worker threads per node (protocol engines, §6.1).
    pub workers_per_node: usize,
    /// Sessions served by each worker (§6.1: each worker is allocated a
    /// number of client sessions).
    pub sessions_per_worker: usize,
    /// Number of keys preallocated in each replica's KVS (at most
    /// [`ClusterConfig::MAX_KEYS`]).
    pub keys: usize,
    /// Release ack-gathering timeout in nanoseconds (§4.2 "Time-out and
    /// Availability"): how long a release waits for *all* acks before
    /// declaring delinquency and taking the slow-path barrier.
    pub release_timeout_ns: u64,
    /// Retransmission interval for quorum-seeking operations (ABD rounds,
    /// Paxos phases) in nanoseconds. Needed for liveness under message loss.
    pub retransmit_ns: u64,
    /// §4.3 optimization "overlapping a release with waiting": run the
    /// release's LLC-read round (and an RMW's propose phase) concurrently
    /// with gathering acks for prior writes. `false` serializes
    /// barrier-then-round-1 — the ablation measured by `ablation_opts`.
    pub overlap_release: bool,
    /// §4.3 "slow-path optimization": slow-path relaxed reads skip ABD's
    /// write-back round and slow-path relaxed writes complete without
    /// waiting for value-round acks. `false` runs full linearizable ABD on
    /// the slow path — the ablation measured by `ablation_opts`.
    pub stripped_slow_path: bool,
    /// Coalesce plain acks per inbound envelope: every ack a replica
    /// generates while draining one envelope is folded into a single
    /// `AckBatch` back to the source (§6.3 batching taken one step further
    /// — the ack path becomes sub-linear in messages). `false` sends one
    /// ack message per request — the equivalence baseline for tests.
    pub coalesce_acks: bool,
    /// Run the anti-entropy / read-repair subsystem: replicas periodically
    /// exchange compact digests — a per-slot-range `(key, Lc)` chunk under
    /// heavy write churn, a whole-store Merkle summary otherwise (the node
    /// picks per sweep) — and pull/push missing values through repair
    /// rounds, so every replica converges on every key's last write without
    /// depending on any particular retransmission. It is the only way a
    /// replica left outside a finished round catches up: no round pushes
    /// its value to stragglers when it completes. `false` is the
    /// equivalence baseline for tests (completed-op sets must match either
    /// way).
    pub anti_entropy: bool,
    /// Interval between anti-entropy digest sweeps, in nanoseconds. One
    /// digest (a chunk of `anti_entropy_chunk` store slots, or one summary)
    /// is broadcast to every peer per interval per node — digest traffic is
    /// `nodes × (nodes − 1) / interval` messages cluster-wide, independent
    /// of op throughput. Its second reader is the WAL (`wal_dir`): the
    /// flusher group-commits once per interval, because whatever a crash
    /// takes from its staging buffer the first sweep after the restart
    /// fetches back from the replicas that acked it.
    pub anti_entropy_interval_ns: u64,
    /// Store slots covered per flat digest sweep. Together with the
    /// interval this bounds a flat full-store walk:
    /// `ceil(capacity / chunk) * interval`.
    pub anti_entropy_chunk: usize,
    /// Per-node crash durability, and the directory it writes to: every
    /// stamp-transitioning store apply is appended to a CRC-framed
    /// write-ahead log, group-committed off the hot path by a dedicated
    /// flusher thread once per `anti_entropy_interval_ns`, with periodic
    /// snapshots truncating the log. A
    /// restarted node reloads the snapshot, replays the WAL tail
    /// (idempotent under LLC-max) and lets anti-entropy heal only the
    /// downtime delta instead of re-replicating the whole store. Each
    /// `NodeRuntime` appends its own `node<idx>/` subdirectory, so one
    /// config serves a whole local cluster. `None` (the default) is the
    /// equivalence kill switch: no WAL thread, no sink attached, request
    /// paths byte-identical to pre-WAL builds.
    pub wal_dir: Option<String>,
    /// Bootstrap (membership-epoch-0) voter set. Empty — the default —
    /// means "every configured slot except `initial_learners`". Configs
    /// that pre-provision spare slots for future joiners list the actual
    /// founding voters here; the live voter set thereafter evolves through
    /// `ConfigChange` CASes on the reserved membership key, not through
    /// this field (see `kite_common::membership`).
    pub initial_voters: NodeSet,
    /// Bootstrap non-voting learner set: slots that start in bulk-sync
    /// (anti-entropy traffic only, no protocol rounds, no quorum weight)
    /// until a `ConfigChange` promotes them.
    pub initial_learners: NodeSet,
    /// Low-frequency keepalive sweep interval (ns), `0` = off. Ordinary
    /// anti-entropy sweeps are activity-driven: they wind down one Merkle
    /// cycle after the node goes idle, so a replica that diverges
    /// while *idle* (partitioned away with no client traffic, past every
    /// peer's cool-down) converges on the next activity rather than at
    /// heal time. With a keepalive set, worker 0 keeps emitting one digest
    /// per `anti_entropy_keepalive_ns` even after the wind-down —
    /// long-idle clusters then converge at heal time. Off by default
    /// because a permanent digest trickle keeps the deterministic
    /// simulator's network busy forever: quiesced sims must terminate.
    pub anti_entropy_keepalive_ns: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 5,
            workers_per_node: 2,
            sessions_per_worker: 4,
            keys: 1 << 16,
            release_timeout_ns: 1_000_000, // ~1 ms, as in §8.4
            retransmit_ns: 2_000_000,
            overlap_release: true,
            stripped_slow_path: true,
            coalesce_acks: true,
            anti_entropy: true,
            // One digest broadcast per node per 5 ms: the digest-message
            // floor is (nodes−1)/interval and the spurious-repair rate (a
            // digest racing a write's normal propagation looks like
            // divergence) is the slot-scan rate chunk/interval times the
            // in-flight-key density — both independent of op throughput,
            // and at these defaults well under 0.01 msgs/op on the paper
            // mixes (pinned by tests/antientropy.rs).
            anti_entropy_interval_ns: 5_000_000,
            anti_entropy_chunk: 128,
            wal_dir: None,
            initial_voters: NodeSet::EMPTY,
            initial_learners: NodeSet::EMPTY,
            anti_entropy_keepalive_ns: 0,
        }
    }
}

impl ClusterConfig {
    /// Most keys a replica's KVS holds: the store gives every slot (⌈1.5 ×
    /// keys⌉, rounded up to a whole 64-slot Merkle leaf) a distinct 24-bit
    /// extension index, 0 meaning none. `kite-kvs` asserts at compile time that this
    /// many keys fit its index.
    pub const MAX_KEYS: usize = 1 << 22;

    /// Most sessions a deployment runs (`nodes × workers_per_node ×
    /// sessions_per_worker`): a key's committed ring keeps the last commit
    /// of every session that ever ran an RMW on it, and `kite` asserts at
    /// compile time that the fullest ring still crosses the wire in one
    /// frame.
    pub const MAX_SESSIONS: usize = 1 << 15;

    /// Per-session cap on relaxed writes with outstanding acks. Bounds
    /// release-barrier bookkeeping; the paper's implementation similarly
    /// bounds in-flight broadcasts by its window of pending messages.
    pub const WRITE_WINDOW: usize = 64;

    /// Operations a self-issuing session (a script or a client state
    /// machine driven inside the worker) may *start* per worker scheduling
    /// tick. Paired with the simulator's service-time model this is the
    /// issue-rate half of the queueing model: relaxed ops are issue-bound,
    /// synchronization ops are round-trip-bound. A session served for a
    /// client outside the worker is not paced by it: each tick starts
    /// everything that client has submitted, up to a blocking op or a full
    /// write window.
    pub const OPS_PER_TICK: usize = 2;

    /// A small deterministic-simulation-friendly configuration.
    pub fn small() -> Self {
        ClusterConfig {
            nodes: 3,
            workers_per_node: 1,
            sessions_per_worker: 2,
            keys: 1 << 10,
            ..Default::default()
        }
    }

    /// Builder: number of replicas.
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// Builder: worker threads per node.
    pub fn workers_per_node(mut self, w: usize) -> Self {
        self.workers_per_node = w;
        self
    }

    /// Builder: sessions per worker.
    pub fn sessions_per_worker(mut self, s: usize) -> Self {
        self.sessions_per_worker = s;
        self
    }

    /// Builder: KVS key-space size.
    pub fn keys(mut self, k: usize) -> Self {
        self.keys = k;
        self
    }

    /// Builder: release ack-gathering timeout (§4.2).
    pub fn release_timeout_ns(mut self, t: u64) -> Self {
        self.release_timeout_ns = t;
        self
    }

    /// Builder: retransmission interval.
    pub fn retransmit_ns(mut self, t: u64) -> Self {
        self.retransmit_ns = t;
        self
    }

    /// Builder: the §4.3 release-overlap optimization.
    pub fn overlap_release(mut self, on: bool) -> Self {
        self.overlap_release = on;
        self
    }

    /// Builder: the §4.3 slow-path-stripping optimization.
    pub fn stripped_slow_path(mut self, on: bool) -> Self {
        self.stripped_slow_path = on;
        self
    }

    /// Builder: per-envelope ack coalescing.
    pub fn coalesce_acks(mut self, on: bool) -> Self {
        self.coalesce_acks = on;
        self
    }

    /// Builder: the anti-entropy / read-repair subsystem kill switch.
    pub fn anti_entropy(mut self, on: bool) -> Self {
        self.anti_entropy = on;
        self
    }

    /// Builder: anti-entropy digest sweep interval.
    pub fn anti_entropy_interval_ns(mut self, t: u64) -> Self {
        self.anti_entropy_interval_ns = t;
        self
    }

    /// Builder: store slots covered per anti-entropy digest.
    pub fn anti_entropy_chunk(mut self, slots: usize) -> Self {
        self.anti_entropy_chunk = slots;
        self
    }

    /// Builder: write-ahead-log durability into `dir`.
    pub fn wal_dir(mut self, dir: impl Into<String>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Builder: bootstrap voter set (empty = all non-learner slots).
    pub fn initial_voters(mut self, v: NodeSet) -> Self {
        self.initial_voters = v;
        self
    }

    /// Builder: bootstrap learner set.
    pub fn initial_learners(mut self, l: NodeSet) -> Self {
        self.initial_learners = l;
        self
    }

    /// Builder: idle-time keepalive sweep interval (`0` = off, the
    /// default — see the field docs for why quiesced sims need it off).
    pub fn anti_entropy_keepalive_ns(mut self, t: u64) -> Self {
        self.anti_entropy_keepalive_ns = t;
        self
    }

    /// Sessions per node (all workers).
    #[inline]
    pub fn sessions_per_node(&self) -> usize {
        self.workers_per_node * self.sessions_per_worker
    }

    /// Total sessions in the deployment.
    #[inline]
    pub fn total_sessions(&self) -> usize {
        self.nodes * self.sessions_per_node()
    }

    /// Majority quorum size.
    #[inline]
    pub fn quorum(&self) -> usize {
        NodeSet::quorum_size(self.nodes)
    }

    /// The full replica set.
    #[inline]
    pub fn all_nodes(&self) -> NodeSet {
        NodeSet::all(self.nodes)
    }

    /// Validate invariants; returns a human-readable complaint if broken.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 3 {
            return Err(format!("need ≥3 replicas for fault tolerance, got {}", self.nodes));
        }
        if self.nodes > crate::ids::NodeId::MAX_NODES {
            return Err(format!("at most 16 replicas supported, got {}", self.nodes));
        }
        if self.workers_per_node == 0 || self.sessions_per_worker == 0 {
            return Err("need at least one worker and one session per worker".into());
        }
        if self.keys == 0 {
            return Err("key space must be non-empty".into());
        }
        if self.keys > Self::MAX_KEYS {
            return Err(format!("at most {} keys supported, got {}", Self::MAX_KEYS, self.keys));
        }
        let per_node = self.workers_per_node.saturating_mul(self.sessions_per_worker);
        let sessions = self.nodes.saturating_mul(per_node);
        if sessions > Self::MAX_SESSIONS {
            let max = Self::MAX_SESSIONS;
            return Err(format!("at most {max} sessions supported, got {sessions}"));
        }
        if self.anti_entropy && (self.anti_entropy_chunk == 0 || self.anti_entropy_interval_ns == 0)
        {
            return Err("anti-entropy needs a non-zero chunk and interval".into());
        }
        let slots = self.all_nodes();
        if !self.initial_voters.minus(slots).is_empty()
            || !self.initial_learners.minus(slots).is_empty()
        {
            return Err(format!(
                "initial voters/learners must be within the {} configured slots",
                self.nodes
            ));
        }
        if !self.initial_voters.intersect(self.initial_learners).is_empty() {
            return Err("a node cannot be both an initial voter and an initial learner".into());
        }
        let voters = if self.initial_voters.is_empty() {
            slots.minus(self.initial_learners)
        } else {
            self.initial_voters
        };
        if voters.len() < 3 {
            return Err(format!("need ≥3 bootstrap voters, got {}", voters.len()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed_shape() {
        let c = ClusterConfig::default();
        assert_eq!(c.nodes, 5);
        assert_eq!(c.quorum(), 3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_chains() {
        let c = ClusterConfig::default().nodes(7).workers_per_node(4).sessions_per_worker(8);
        assert_eq!(c.nodes, 7);
        assert_eq!(c.sessions_per_node(), 32);
        assert_eq!(c.total_sessions(), 224);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        assert!(ClusterConfig::default().nodes(2).validate().is_err());
        assert!(ClusterConfig::default().nodes(17).validate().is_err());
        assert!(ClusterConfig::default().workers_per_node(0).validate().is_err());
        assert!(ClusterConfig::default().keys(0).validate().is_err());
        let max = ClusterConfig::MAX_KEYS;
        assert!(ClusterConfig::default().keys(max).validate().is_ok());
        assert!(ClusterConfig::default().keys(max + 1).validate().is_err());
        // 4 × 1 × 2^13 sessions is exactly the bound; 3 × 1 × 10 923 is one more.
        let sessions =
            |n, s| ClusterConfig::default().nodes(n).workers_per_node(1).sessions_per_worker(s);
        assert_eq!(sessions(4, 1 << 13).total_sessions(), ClusterConfig::MAX_SESSIONS);
        assert!(sessions(4, 1 << 13).validate().is_ok());
        assert_eq!(sessions(3, 10_923).total_sessions(), ClusterConfig::MAX_SESSIONS + 1);
        assert!(sessions(3, 10_923).validate().is_err());
        assert!(ClusterConfig::default().anti_entropy_chunk(0).validate().is_err());
        assert!(ClusterConfig::default().anti_entropy_interval_ns(0).validate().is_err());
        // ... but a disabled subsystem doesn't care about its knobs.
        assert!(ClusterConfig::default()
            .anti_entropy(false)
            .anti_entropy_chunk(0)
            .validate()
            .is_ok());
    }

    #[test]
    fn anti_entropy_knobs_default_on_and_chain() {
        let c = ClusterConfig::default();
        assert!(c.anti_entropy, "anti-entropy is on by default");
        let c = c.anti_entropy_interval_ns(1_000).anti_entropy_chunk(7);
        assert_eq!(c.anti_entropy_interval_ns, 1_000);
        assert_eq!(c.anti_entropy_chunk, 7);
    }

    #[test]
    fn wal_knobs_default_off_and_validate() {
        let c = ClusterConfig::default();
        assert_eq!(c.wal_dir, None, "the WAL is an opt-in durability mode");
        let c = c.wal_dir("/tmp/kite-wal");
        assert_eq!(c.wal_dir.as_deref(), Some("/tmp/kite-wal"));
        assert!(c.validate().is_ok());
    }
}
