//! # kite-verify
//!
//! Execution-history recording and consistency checking for the Kite
//! reproduction. The paper *proves* that the fast/slow-path mechanism
//! enforces RC (§5); this crate lets the test-suite *check* executions
//! against the same axioms:
//!
//! * [`history`] — operation records and thread-safe history collection.
//! * [`checker`] — a search-based register checker with pluggable
//!   precedence: **linearizability** (real-time order, used for ABD's
//!   releases/acquires and Paxos RMWs) and **sequential consistency /
//!   per-key SC** (session order, used for ES).
//! * [`rc`] — the Release Consistency axioms of §5.1 as a happens-before
//!   graph construction plus the **load-value axiom** check (§5.2's proof
//!   obligation), with RCLin's real-time edges among sync operations.
//! * [`check`] — the workspace's property runner: generators draw from a
//!   recorded choice sequence, and a failing case shrinks on that sequence
//!   and prints a one-line replay.
//!
//! Checkers are exhaustive searches with memoization, intended for the
//! small-but-adversarial histories produced by the deterministic simulator
//! (tens of operations per key), not for full benchmark runs.

#![warn(missing_docs)]

pub mod check;
pub mod checker;
pub mod history;
pub mod rc;

pub use checker::{check_linearizable, check_per_key_sc, check_sequential, RegOp, RegOpKind};
pub use history::{History, OpKind, OpRecord};
pub use rc::{check_rc, RcCheckError};
