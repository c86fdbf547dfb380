//! # kite-common
//!
//! Shared foundation types for the Kite release-consistency key-value store
//! (Gavrielatos et al., *Kite: Efficient and Available Release Consistency
//! for the Datacenter*, PPoPP 2020) and its baselines.
//!
//! This crate is dependency-light on purpose: everything here is used on the
//! hot path of the protocol engines, so types are small, `Copy` where
//! possible, and allocation-free unless a value genuinely outgrows its
//! inline buffer.
//!
//! Contents:
//! * [`ids`] — node / worker / session / operation identifiers.
//! * [`clock`] — Lamport logical clocks (`Lc`), the ordering backbone of all
//!   three protocols (ES, ABD, Paxos), plus epoch identifiers.
//! * [`value`] — compact value representation with a 32-byte inline fast
//!   path (the paper's evaluation uses 32-byte values).
//! * [`nodeset`] — bitset over replica ids and quorum arithmetic.
//! * [`config`] — deployment configuration shared by Kite and the baselines.
//! * [`stats`] — the per-node protocol counters (`kite-metrics` types).
//! * [`rng`] — tiny splittable PRNG for deterministic hot-path decisions.
//! * [`error`] — the common error type.

#![warn(missing_docs)]

pub mod clock;
pub mod config;
pub mod error;
pub mod ids;
pub mod membership;
pub mod nodeset;
pub mod rng;
pub mod stats;
pub mod value;

pub use clock::{Epoch, Lc};
pub use config::ClusterConfig;
pub use error::{KiteError, Result};
pub use ids::{Key, NodeId, OpId, SessionId};
pub use membership::{Membership, MembershipCell, MEMBERSHIP_KEY};
pub use nodeset::NodeSet;
pub use value::Val;
