//! # kite-zab
//!
//! The paper's in-house **ZAB** baseline (§7): Zookeeper Atomic Broadcast
//! re-implemented over the same KVS and network substrate as Kite, with the
//! same session/worker structure and opportunistic batching.
//!
//! Design, as characterized by the paper:
//!
//! * **Total order of writes.** Every write is forwarded to the leader
//!   (node 0), which assigns it a cluster-wide sequence number (*zxid*)
//!   and broadcasts a proposal; after a quorum acks, the leader broadcasts
//!   a commit. All nodes apply writes in strict zxid order through a
//!   per-node reorder buffer.
//! * **Local reads.** Because every replica applies the same write
//!   sequence, reads are served locally (SC reads — weaker than Kite's
//!   lin acquires, which is the paper's point in §8.1).
//! * **RMW-strength writes.** Totally ordered writes give ZAB writes the
//!   semantics of RMWs (§8.2 compares them against per-key Paxos and finds
//!   ZAB slower at high write ratios: total order constrains parallelism —
//!   in this implementation the leader's service queue and the shared
//!   in-order applier are precisely those constraints).
//!
//! Scope notes (documented deviations):
//! * No leader election/recovery: the paper's evaluation never fails the
//!   leader; this baseline exists for the throughput comparisons.
//! * RMW API calls are mapped to ZAB writes (values computed at the
//!   origin). The figures only use reads/writes for ZAB; Figure 8's
//!   "ZAB-ideal" is derived analytically exactly as the paper does.

#![warn(missing_docs)]

pub mod shared;
pub mod worker;
pub mod zcluster;

pub use shared::{ApplyBuf, ZabShared};
pub use worker::{ZabMsg, ZabWorker};
pub use zcluster::sim_cluster;

/// The fixed leader of the deployment.
pub const LEADER: kite_common::NodeId = kite_common::NodeId(0);
