//! # kite-kvs
//!
//! The per-replica in-memory key-value store, modeled on MICA ([Lim et al.,
//! NSDI'14]) as adapted by Kite (§6.2):
//!
//! * an open-addressing hash index over preallocated one-cache-line slots;
//! * **per-key sequence locks** (seqlocks, [Lameter '05]) for
//!   multi-threaded access: reads are optimistic and lock-free, writes take
//!   the key's lock;
//! * Kite-specific per-key metadata: the key's Lamport clock (shared by ES
//!   and ABD — one of the reasons the paper picked these protocols, §3.3)
//!   and the per-key **epoch-id** driving fast/slow-path decisions (§4.2);
//! * a lazily-allocated **Paxos structure** behind each key (§6.2 "Adapting
//!   MICA for Paxos"), kept in the key's *extension* — the per-key overflow
//!   record that also holds value bytes past the slot's inline 32, so a
//!   slot stays one cache line (see [`record`]).
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
