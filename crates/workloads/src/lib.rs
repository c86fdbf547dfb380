//! # kite-workloads
//!
//! Workload generation and throughput measurement for the Kite evaluation
//! (§7, §8): uniform KVS mixes parameterized by write ratio,
//! synchronization fraction and RMW fraction, plus harness helpers that
//! run a mix on a simulated deployment and report million-requests-per-
//! second (mreqs) of virtual time.
//!
//! Mix semantics follow §8.1's worked example ("a 60% write ratio, 50%
//! synchronization and 50% RMWs workload implies 50% RMWs, 5% writes, 5%
//! releases, 20% reads and 20% acquires"):
//!
//! * `write_ratio` — fraction of *all* operations that write, RMWs included;
//! * `rmw_frac` — fraction of all operations that are RMWs (⊆ writes);
//! * `sync_frac` — fraction of the remaining plain writes that are
//!   releases, and of reads that are acquires.

#![warn(missing_docs)]

pub mod measure;
pub mod mix;
pub mod skew;

pub use measure::{measure, mreqs, run_kite_mix, RunResult};
pub use mix::MixCfg;
pub use skew::Zipf;
