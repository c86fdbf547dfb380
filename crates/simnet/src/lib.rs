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
//!   worker *w* of each remote node (§6.3), so the fabric routes batches
//!   by `(destination node, source worker index)`.
//! * **Opportunistic batching** — an [`Outbox`] accumulates the messages a
//!   worker produces during one scheduling step and flushes them as one
//!   batch per destination (§6.3: workers never wait to fill a quota).
//!
//! Two things live here:
//!
//! * [`sim`] — a single-threaded discrete-event executor with virtual time
//!   and a seeded RNG for latency jitter, drops, partitions, node sleeps and
//!   crashes. Used for reproducible correctness tests and every figure: a
//!   seed fully determines the execution, including fast/slow-path
//!   transitions. Its fault methods model the failure study of §8.4.
//! * the vocabulary every runtime shares — [`Actor`], [`Wakeup`],
//!   [`Outbox`], the clocks, and the [`Wake`]/[`Dumper`] handles that reach
//!   a worker loop from outside. The other runtime, the epoll fabric that
//!   runs real nodes (one per process, or several on loopback in one
//!   process), lives in `kite-net`.

#![warn(missing_docs)]

pub mod actor;
pub mod outbox;
pub mod sim;

pub use actor::{Actor, Dumper, Wake, Wakeup, WallClock};
pub use outbox::Outbox;
pub use sim::{Sim, SimCfg, BASE_LATENCY_NS, JITTER_NS, RECV_QUEUE_CAP, TICK_NS};
