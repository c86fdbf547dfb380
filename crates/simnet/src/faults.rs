//! Shared fault-injection state for the threaded runtime (§8.4 failure study).
//!
//! The paper's failure experiment forces a replica to *sleep* — "a bigger
//! challenge than simply killing it" because the system must both tolerate
//! its absence and absorb its return. The `FaultPlane` supports:
//!
//! * **node sleep** — the node's workers stop processing until a deadline;
//!   messages to it are buffered, not lost (a GC pause / overload model);
//! * **lossy links** — per-link drop probability (RDMA UD loss model);
//! * **partitions** — drop probability 1.0 on both directions of a link.
//!
//! Crash-stop and per-link delay are faults of the simulator only
//! ([`crate::sim::Sim::crash`], [`crate::sim::Sim::set_link_delay`]):
//! virtual time delays an envelope for free, while wall-clock threads would
//! need a timer thread per cluster to do it.
//!
//! All checks on the send/receive hot path are single atomic loads.

use std::sync::atomic::{AtomicU64, Ordering};

use kite_common::NodeId;

/// Cluster-wide fault state shared by all worker threads.
pub struct FaultPlane {
    n: usize,
    /// Absolute wall-clock deadline (ns on the cluster clock) until which
    /// the node sleeps; 0 = awake.
    sleep_until: Vec<AtomicU64>,
    /// Row-major `drop_fp[src * n + dst]`: the directed link's drop
    /// probability in units of 1/2^32 (0 = reliable, u32::MAX ≈ 1.0) —
    /// fixed-point on an atomic so the data plane never takes a lock.
    drop_fp: Vec<AtomicU64>,
}

impl FaultPlane {
    /// A fault-free plane for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        FaultPlane {
            n: nodes,
            sleep_until: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            drop_fp: (0..nodes * nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of nodes the plane covers.
    pub fn nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn link(&self, src: NodeId, dst: NodeId) -> &AtomicU64 {
        &self.drop_fp[src.idx() * self.n + dst.idx()]
    }

    // ---- control plane -------------------------------------------------

    /// Put a node to sleep until the given cluster-clock deadline.
    pub fn sleep_node_until(&self, node: NodeId, deadline_ns: u64) {
        self.sleep_until[node.idx()].store(deadline_ns, Ordering::SeqCst);
    }

    /// Set the drop probability of the directed link `src → dst`.
    pub fn set_drop(&self, src: NodeId, dst: NodeId, p: f64) {
        let fp = (p.clamp(0.0, 1.0) * u32::MAX as f64) as u64;
        self.link(src, dst).store(fp, Ordering::SeqCst);
    }

    /// Symmetric partition between `a` and `b`: both directions drop all.
    pub fn partition(&self, a: NodeId, b: NodeId) {
        self.set_drop(a, b, 1.0);
        self.set_drop(b, a, 1.0);
    }

    /// Heal the link between `a` and `b` in both directions.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        self.set_drop(a, b, 0.0);
        self.set_drop(b, a, 0.0);
    }

    // ---- data plane ----------------------------------------------------

    /// Should a message `src → dst` be dropped? `coin` is a uniform u32 from
    /// the sender's PRNG (passed in so the plane itself stays stateless).
    #[inline]
    pub fn should_drop(&self, src: NodeId, dst: NodeId, coin: u32) -> bool {
        let fp = self.link(src, dst).load(Ordering::Relaxed);
        fp != 0 && (coin as u64) < fp
    }

    /// Is the node sleeping at cluster-clock time `now`?
    #[inline]
    pub fn is_sleeping(&self, node: NodeId, now: u64) -> bool {
        self.sleep_until[node.idx()].load(Ordering::Relaxed) > now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_faultless() {
        let f = FaultPlane::new(3);
        for s in 0..3u8 {
            for d in 0..3u8 {
                assert!(!f.should_drop(NodeId(s), NodeId(d), u32::MAX - 1));
            }
        }
        assert!(!f.is_sleeping(NodeId(0), 123));
    }

    #[test]
    fn drop_probability_thresholds_coin() {
        let f = FaultPlane::new(2);
        f.set_drop(NodeId(0), NodeId(1), 0.5);
        // coin far below 0.5 * 2^32 → dropped; far above → kept
        assert!(f.should_drop(NodeId(0), NodeId(1), 1000));
        assert!(!f.should_drop(NodeId(0), NodeId(1), u32::MAX));
        // reverse direction untouched
        assert!(!f.should_drop(NodeId(1), NodeId(0), 1000));
    }

    #[test]
    fn partition_and_heal() {
        let f = FaultPlane::new(3);
        f.partition(NodeId(0), NodeId(2));
        assert!(f.should_drop(NodeId(0), NodeId(2), u32::MAX - 1));
        assert!(f.should_drop(NodeId(2), NodeId(0), u32::MAX - 1));
        f.heal(NodeId(0), NodeId(2));
        assert!(!f.should_drop(NodeId(0), NodeId(2), u32::MAX - 1));
    }

    #[test]
    fn sleep_is_deadline_based() {
        let f = FaultPlane::new(2);
        f.sleep_node_until(NodeId(0), 1_000);
        assert!(f.is_sleeping(NodeId(0), 999));
        assert!(!f.is_sleeping(NodeId(0), 1_000));
    }
}
