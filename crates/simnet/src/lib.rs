//! # kite-simnet
//!
//! The in-process "datacenter network" that replaces the paper's RDMA
//! fabric (5 machines on 56 Gb InfiniBand, §7). It preserves the properties
//! Kite's protocols actually depend on:
//!
//! * **Unreliable, unordered datagrams** — like RDMA UD sends, messages may
//!   be dropped or delayed; nothing is retransmitted by the network.
//!   Protocol-level recovery (ack timeouts, the delinquency mechanism) is
//!   exactly what the paper builds on top.
//! * **Unicast only** — broadcasts are loops of unicasts (§6.3).
//! * **Worker peering** — worker *w* of a node exchanges messages only with
//!   worker *w* of each remote node (§6.3), so the fabric routes envelopes
//!   by `(destination node, source worker index)`.
//! * **Opportunistic batching** — an [`Outbox`] accumulates the messages a
//!   worker produces during one scheduling step and flushes them as one
//!   envelope per destination (§6.3: workers never wait to fill a quota).
//!
//! Two interchangeable schedulers drive the same sans-io protocol actors:
//!
//! * [`threaded`] — one OS thread per worker and nothing else, crossbeam
//!   channels as NICs, wall-clock time. Used by the in-process `Cluster`
//!   (examples, threaded tests).
//! * [`sim`] — a single-threaded discrete-event executor with virtual time
//!   and a seeded RNG for latency jitter, drops, partitions, node sleeps and
//!   crashes. Used for reproducible correctness tests: a seed fully
//!   determines the execution, including fast/slow-path transitions.
//!
//! Fault injection models the failure study of §8.4. [`FaultPlane`] gives
//! the threaded runtime the two faults the paper injects — sleeping
//! replicas and lossy links (partitions included); the fault methods on
//! [`sim::Sim`] add crash-stop and per-link delay in virtual time.

#![warn(missing_docs)]

pub mod actor;
pub mod faults;
pub mod outbox;
pub mod sim;
pub mod threaded;

pub use actor::{Actor, Clock, Wakeup, WallClock};
pub use faults::FaultPlane;
pub use outbox::{Envelope, Outbox};
pub use sim::{Sim, SimCfg};
pub use threaded::{
    spawn_workers, Dumper, NetHandle, StopHandle, ThreadedNet, Wake, WorkerIo, WorkerWaker,
};
