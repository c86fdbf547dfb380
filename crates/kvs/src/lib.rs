//! # kite-kvs
//!
//! The per-replica in-memory key-value store, modeled on MICA ([Lim et al.,
//! NSDI'14]) as adapted by Kite (§6.2):
//!
//! * a bucketed hash index over preallocated records;
//! * **per-key sequence locks** (seqlocks, [Lameter '05]) for
//!   multi-threaded access: reads are optimistic and lock-free, writes take
//!   the key's lock;
//! * Kite-specific per-key metadata: the key's Lamport clock (shared by ES
//!   and ABD — one of the reasons the paper picked these protocols, §3.3)
//!   and the per-key **epoch-id** driving fast/slow-path decisions (§4.2);
//! * a lazily-allocated **Paxos structure** behind each key (§6.2 "Adapting
//!   MICA for Paxos"): locking the key through its seqlock also locks the
//!   Paxos state.
//!
//! The store is deliberately *not* aware of the network or of sessions: it
//! is the passive substrate all protocol engines (Kite, ZAB, Derecho) share.

#![warn(missing_docs)]

pub mod paxos_meta;
pub mod record;
pub mod seqlock;
pub mod store;

pub use paxos_meta::{CommittedRing, PaxosMeta, RmwCommit};
pub use record::ReadView;
pub use seqlock::SeqLock;
pub use store::{merkle_mix, DurabilitySink, SinkError, Store, StoreProbe};
