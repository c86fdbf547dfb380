//! # kite
//!
//! A Rust reproduction of **Kite: Efficient and Available Release
//! Consistency for the Datacenter** (Gavrielatos, Katsarakis, Nagarajan,
//! Grot, Joshi — PPoPP 2020).
//!
//! Kite is a replicated, in-memory key-value store offering **RCLin** — a
//! linearizable variant of Release Consistency — in an asynchronous setting
//! with crash-stop and network failures. It maps the RC API onto three
//! protocols (Table 1 of the paper):
//!
//! * relaxed reads/writes → **Eventual Store** (per-key SC, local reads);
//! * releases/acquires → **multi-writer ABD** (linearizable reads/writes);
//! * RMWs → **per-key leaderless Paxos** (consensus).
//!
//! and enforces the RC barrier semantics with a **fast/slow-path
//! mechanism** (§4): releases wait for *all* acks in the fast path; under
//! asynchrony they publish a delinquency set to a quorum, acquires discover
//! their delinquency through quorum intersection, invalidate their whole
//! local store by bumping a machine epoch-id, and refresh keys lazily
//! through quorum reads.
//!
//! ## Crate layout
//!
//! * [`api`] — the client-facing operation types (Table 1 + §6.1).
//! * [`msg`] — the wire protocol.
//! * [`worker`], [`replica`], [`initiator`] — the sans-io protocol engine.
//! * [`antientropy`] — background digest/repair convergence (the one way
//!   a replica left outside a finished round catches up).
//! * [`session`], [`inflight`] — program-order and in-flight bookkeeping.
//! * [`delinquency`], [`nodestate`] — the barrier mechanism's node state.
//! * [`wire`] — the binary codec carrying [`msg::Msg`] batches and the
//!   client protocol across real sockets (see the `kite-net` crate, whose
//!   `RemoteSession` is the one client of a real node, in-process or not).
//! * [`simcluster`] — the system on the deterministic simulator, for
//!   reproducible correctness tests and the benchmark harness.
//!
//! ## Quick start
//!
//! A producer's payload write and flag release on the simulator; the
//! `kite-net` crate docs show the same handshake on real nodes.
//!
//! ```
//! use kite::api::Op;
//! use kite::session::SessionDriver;
//! use kite::{ProtocolMode, SimCluster};
//! use kite_common::{ClusterConfig, Key, NodeId, SessionId, Val};
//! use kite_simnet::SimCfg;
//!
//! let producer = SessionId::new(NodeId(0), 0);
//! let mut sc = SimCluster::build(
//!     ClusterConfig::small().keys(128),
//!     ProtocolMode::Kite,
//!     SimCfg::default(),
//!     |sid| match sid == producer {
//!         true => SessionDriver::Script(Box::new(|seq| match seq {
//!             0 => Some(Op::Write { key: Key(1), val: Val::from_u64(7) }),
//!             1 => Some(Op::Release { key: Key(0), val: Val::from_u64(1) }),
//!             _ => None,
//!         })),
//!         false => SessionDriver::Idle,
//!     },
//!     None,
//! );
//! assert!(sc.run_until_quiesce(1_000_000_000), "two ops settle in a virtual second");
//! assert_eq!(sc.total_completed(), 2);
//! ```

#![warn(missing_docs)]

pub mod antientropy;
pub mod api;
pub mod delinquency;
pub mod inflight;
pub mod initiator;
pub mod msg;
pub mod nodestate;
pub mod replica;
pub mod session;
pub mod simcluster;
pub mod wire;
pub mod worker;

pub use api::{Completion, CompletionHook, Op, OpOutput};
pub use msg::Msg;
pub use nodestate::{NodeShared, OpLatency};
pub use session::{ClientSm, ProtocolMode, Session, SessionDriver};
pub use simcluster::SimCluster;
pub use worker::Worker;
