//! # kite-derecho
//!
//! A minimal Derecho-like state-machine-replication baseline for Figure 7.
//!
//! The paper compares against Derecho [Jha et al., TOCS'19], "the most
//! efficient amongst a series of RDMA State Machine Replication
//! implementations", and attributes its comparatively low KVS throughput to
//! two properties (§8.2):
//!
//! * **single-threaded** per-node message handling (Derecho is built for
//!   huge messages, not millions of small KVS writes), and
//! * **atomic multicast delivery**, in two flavors: *ordered* (the SST
//!   round-robin total order) and *unordered* (reliable delivery without
//!   ordering).
//!
//! This crate reproduces exactly those two properties on our fabric:
//! one worker per node (enforced), senders multicast fixed-batch writes,
//! and delivery is either round-robin ordered across senders or immediate.
//! It implements nothing else of Derecho (no view changes, no RDMA dataplane
//! tricks) — it exists so the Figure 7 comparison has a faithful *shape*:
//! orders of magnitude below the multi-threaded, per-key protocols.

#![warn(missing_docs)]

pub mod group;

pub use group::{sim_cluster, DerechoMode, DerechoWorker, DrcMsg};
