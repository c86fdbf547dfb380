//! # kite-net
//!
//! The real-network transport of the Kite reproduction: the third
//! scheduler for the sans-io protocol actors. Where `kite-simnet` drives
//! the same `Worker` code through in-process channels (threaded) or a
//! deterministic event loop (sim), this crate drives it across **real TCP
//! sockets between real processes** — the step from protocol to deployable
//! replication layer.
//!
//! * [`fabric`] — [`TcpNet`]: one run-to-completion epoll event loop per
//!   worker (the worker thread *is* the I/O loop), nonblocking sockets,
//!   readiness-driven reads feeding `Actor::on_envelope`, vectored writes
//!   draining bounded per-peer outbound rings that shed under
//!   backpressure, per-link reconnect-with-backoff as loop state, and
//!   watchdog-visible link/ring state.
//! * [`sys`] — the raw-libc epoll/eventfd/nonblocking-connect FFI surface
//!   (the workspace carries no libc/mio/tokio crates).
//! * [`ring`] — the bounded outbound frame ring and the shared buffer
//!   pools.
//! * [`node`] — [`NodeRuntime`]: one Kite node as a process (session
//!   plumbing, workers over the fabric, in-loop remote-session serving,
//!   clean shutdown); [`launch_local_cluster`] runs a whole cluster on
//!   loopback inside one process for tests and benches.
//! * [`client`] — [`RemoteSession`]: the `SessionHandle` API over a
//!   socket, pipelined — many in-flight ops per connection, completions
//!   matched by op sequence number through a reorder window.
//! * `kite-node` / `kite-client` (bins) — the daemon and the workload
//!   driver used by `scripts/e2e_tcp.sh`.
//!
//! The wire format itself lives in `kite::wire`; this crate only moves the
//! frames. The buffer-recycling contract of the in-process runtimes
//! survives the socket boundary: outbox batches are encoded into pooled
//! byte buffers that the rings recycle once the kernel accepts the bytes,
//! and inbound frames decode into pooled `Vec<Msg>` buffers — steady-state
//! sends and receives allocate nothing.

#![warn(missing_docs)]

pub mod client;
pub mod fabric;
pub mod link;
pub mod node;
pub mod ring;
pub mod scrape;
pub mod sys;

pub use client::{RemoteSession, CLIENT_TIMEOUT};
pub use fabric::{
    bind_reuseaddr, spawn_tcp_workers, ClientSessions, NodeStopHandle, PeerTable, TcpNet,
    TcpNetCfg, TcpWorkerIo,
};
pub use link::{FabricStats, LinkPhase, LinkState, LinkTable, LoopStats};
pub use node::{launch_local_cluster, NodeConfig, NodeRuntime, NodeWatchdog};
