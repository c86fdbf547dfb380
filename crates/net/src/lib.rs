//! # kite-net
//!
//! The real-network runtime of the Kite reproduction. `kite-simnet`'s
//! simulator drives the sans-io `Worker` on virtual time; this crate drives
//! the same code across **real TCP sockets** — between processes
//! (`kite-node`), or between the nodes of a [`Cluster`] inside one process.
//!
//! * [`fabric`] — [`TcpNet`]: one run-to-completion epoll event loop per
//!   worker (the worker thread *is* the I/O loop; worker 0's also accepts
//!   for the node — there is no other thread), nonblocking sockets,
//!   readiness-driven reads feeding `Actor::on_envelope`, vectored writes
//!   draining bounded per-peer outbound rings that shed under
//!   backpressure, per-link reconnect-with-backoff as loop state, and
//!   watchdog-visible link/ring state.
//! * [`sys`] — the raw-libc epoll/eventfd/nonblocking-connect FFI surface
//!   (the workspace carries no libc/mio/tokio crates).
//! * [`ring`] — the bounded outbound frame ring and the shared buffer
//!   pools.
//! * [`link`] — per-link state and counters, and the injected-loss knob
//!   ([`LinkTable::set_drop`]).
//! * [`node`] — [`NodeRuntime`]: one Kite node as a process (session
//!   plumbing, workers over the fabric, in-loop session serving, clean
//!   shutdown).
//! * [`cluster`] — [`Cluster`]: a whole cluster of [`NodeRuntime`]s on
//!   loopback in one process, for tests, examples and benches; its
//!   sessions are [`RemoteSession`]s on the nodes' loopback addresses.
//! * [`client`] — [`RemoteSession`]: the one client — the Kite API's sync
//!   and async calls over a socket, pipelined: many in-flight ops per
//!   connection, completions matched by op sequence number through a
//!   reorder window.
//! * `kite-node` / `kite-client` (bins) — the daemon and the workload
//!   driver used by `scripts/e2e_tcp.sh`.
//!
//! The wire format itself lives in `kite::wire`; this crate only moves the
//! frames. Outbox batches are encoded into pooled byte buffers that the
//! rings recycle once the kernel accepts the bytes, and inbound frames
//! decode into pooled `Vec<Msg>` buffers — steady-state sends and receives
//! allocate nothing.
//!
//! ## Quick start
//!
//! ```
//! use kite::ProtocolMode;
//! use kite_common::{ClusterConfig, Key, NodeId};
//! use kite_net::Cluster;
//!
//! let cfg = ClusterConfig::small().keys(128);
//! let cluster = Cluster::launch(cfg, ProtocolMode::Kite).unwrap();
//! let mut producer = cluster.session(NodeId(0), 0).unwrap();
//! let mut consumer = cluster.session(NodeId(1), 0).unwrap();
//!
//! producer.write(Key(1), b"payload").unwrap();
//! producer.release(Key(0), b"ready").unwrap();
//!
//! // Spin until the consumer acquires the flag, then the payload is
//! // guaranteed visible (RC barrier invariant).
//! loop {
//!     let flag = consumer.acquire(Key(0)).unwrap();
//!     if flag.as_bytes() == b"ready" {
//!         break;
//!     }
//! }
//! assert_eq!(consumer.read(Key(1)).unwrap().as_bytes(), b"payload");
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod fabric;
pub mod link;
pub mod node;
pub mod ring;
pub mod scrape;
pub mod sys;

pub use client::{RemoteSession, CLIENT_TIMEOUT};
pub use cluster::Cluster;
pub use fabric::{
    bind_reuseaddr, spawn_tcp_workers, ClientPort, NodeStopHandle, TcpNet, TcpNetCfg, TcpWorkerIo,
};
pub use link::{FabricStats, LinkPhase, LinkState, LinkTable, LoopStats};
pub use node::{NodeConfig, NodeRuntime, NodeWatchdog};
