//! # kite-lockfree
//!
//! The three lock-free shared-memory data structures the paper ports to the
//! Kite API (§8.3):
//!
//! * the **Treiber stack** (TS) [Treiber '86],
//! * the **Michael-Scott queue** (MSQ) [Michael & Scott, PODC'96],
//! * the **Harris-Michael list** (HML) [Harris DISC'01, Michael SPAA'02],
//!
//! written exactly as a shared-memory programmer would port them under the
//! DRF contract:
//!
//! * data-structure *pointers* (stack top, queue head/tail, list links) are
//!   read with **acquires** and updated with **CAS** (RMWs carry
//!   acquire+release semantics, §5.1 note);
//! * node *payload fields* are plain **relaxed** reads/writes — the RC
//!   barriers make them visible when the publishing CAS is observed;
//! * conflict retries use the **weak CAS** (§6.1), which fails locally
//!   without a network round — the paper's trick for absorbing contention;
//! * pointers carry **ABA counters** (§8.3 notes the TS port includes them)
//!   and node reuse goes through per-client free lists.
//!
//! Every operation is written once, as a [`machine::DsMachine`] — an
//! explicit state machine over the Kite op/completion interface — and can
//! then be driven two ways:
//!
//! * **blocking**, over any client's submit-and-wait call (a socket
//!   session on real nodes, as in the examples): [`machine::run_blocking`];
//! * **closed-loop simulated**, as a [`kite::session::ClientSm`]
//!   (deterministic benches — Figure 8): [`driver::DsClient`].

#![warn(missing_docs)]

pub mod driver;
pub mod hml;
pub mod machine;
pub mod msq;
pub mod ptr;
pub mod treiber;

pub use driver::{DsClient, DsStats, DsWorkload};
pub use machine::{run_blocking, DsMachine, DsOutcome, Step};
pub use ptr::{NodeArena, Ptr};
