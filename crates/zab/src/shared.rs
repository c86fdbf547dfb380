//! Per-node shared state for the ZAB baseline.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kite_common::stats::ProtoCounters;
use kite_common::{ClusterConfig, Key, Lc, NodeId, Val};
use kite_kvs::Store;
use parking_lot::Mutex;

/// The per-node in-order write applier. This is ZAB's throughput
/// constraint made concrete: all workers of a node funnel committed writes
/// through one ordered stream (§8.2: "ZAB constrains parallelism by totally
/// ordering all of the writes and applying them in the same order in all
/// nodes").
#[derive(Default)]
pub struct ApplyBuf {
    /// Proposals received, waiting for commit + their turn.
    pending: BTreeMap<u64, (Key, Val)>,
    /// Commit notices received (the fabric is unordered, so commits may
    /// arrive out of order; pruned as entries apply).
    committed: BTreeSet<u64>,
    /// Next zxid to apply.
    next_apply: u64,
}

impl ApplyBuf {
    /// Record a proposal.
    pub fn propose(&mut self, zxid: u64, key: Key, val: Val) {
        self.pending.insert(zxid, (key, val));
    }

    /// Record a commit notice.
    pub fn commit(&mut self, zxid: u64) {
        self.committed.insert(zxid);
    }

    /// Apply everything contiguous: entries apply in strict zxid order once
    /// both the proposal and its commit are present. Returns the number of
    /// writes applied.
    pub fn drain(&mut self, store: &Store) -> usize {
        let mut applied = 0;
        while self.committed.contains(&self.next_apply) {
            let Some((key, val)) = self.pending.remove(&self.next_apply) else { break };
            // zxid doubles as the version: the externally imposed total
            // order replaces LLC arbitration entirely.
            store.apply_ordered(key, &val, Lc::new(self.next_apply + 1, kite_common::NodeId(0)));
            self.committed.remove(&self.next_apply);
            self.next_apply += 1;
            applied += 1;
        }
        applied
    }

    /// Outstanding (unapplied) entries — diagnostics.
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// Next zxid this node will apply.
    pub fn next_zxid(&self) -> u64 {
        self.next_apply
    }
}

/// One ZAB node's shared state.
pub struct ZabShared {
    /// This node's id.
    pub me: NodeId,
    /// Deployment configuration.
    pub cfg: ClusterConfig,
    /// The node's replica store.
    pub store: Store,
    /// The in-order applier, shared by the node's workers.
    pub apply: Mutex<ApplyBuf>,
    /// The global write sequencer — used only on the leader.
    zxid: AtomicU64,
    /// Per-node counters.
    pub counters: Arc<ProtoCounters>,
}

impl ZabShared {
    /// Build the shared state for node `me`.
    pub fn new(me: NodeId, cfg: ClusterConfig, counters: Arc<ProtoCounters>) -> Arc<Self> {
        Arc::new(ZabShared {
            me,
            store: Store::new(cfg.keys),
            apply: Mutex::new(ApplyBuf::default()),
            zxid: AtomicU64::new(0),
            counters,
            cfg,
        })
    }

    /// Allocate the next zxid (leader only).
    pub fn next_zxid(&self) -> u64 {
        self.zxid.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_applies_in_zxid_order_despite_reordering() {
        let store = Store::new(64);
        let mut buf = ApplyBuf::default();
        // Proposals and commits arrive shuffled.
        buf.propose(2, Key(1), Val::from_u64(30));
        buf.propose(0, Key(1), Val::from_u64(10));
        buf.commit(2);
        assert_eq!(buf.drain(&store), 0, "zxid 0 not committed yet");
        buf.commit(0);
        assert_eq!(buf.drain(&store), 1, "only zxid 0 is contiguous");
        assert_eq!(store.view(Key(1)).val.as_u64(), 10);
        buf.propose(1, Key(1), Val::from_u64(20));
        buf.commit(1);
        assert_eq!(buf.drain(&store), 2, "1 and 2 apply together");
        // Final value is zxid 2's write even though it was proposed first.
        assert_eq!(store.view(Key(1)).val.as_u64(), 30);
        assert_eq!(buf.next_zxid(), 3);
        assert_eq!(buf.backlog(), 0);
    }

    #[test]
    fn ordered_apply_ignores_llc_would_be_winners() {
        // A lower zxid applied later must still lose to a higher zxid
        // applied earlier? No — ordered application means LAST in zxid order
        // wins, period. Verify via interleaving.
        let store = Store::new(64);
        let mut buf = ApplyBuf::default();
        for z in 0..5u64 {
            buf.propose(z, Key(9), Val::from_u64(z));
            buf.commit(z);
        }
        buf.drain(&store);
        assert_eq!(store.view(Key(9)).val.as_u64(), 4);
    }

    #[test]
    fn zxid_allocation_is_dense() {
        let s = ZabShared::new(
            NodeId(0),
            ClusterConfig::small(),
            Arc::new(ProtoCounters::default()),
        );
        assert_eq!(s.next_zxid(), 0);
        assert_eq!(s.next_zxid(), 1);
        assert_eq!(s.next_zxid(), 2);
    }
}
