//! The threaded in-process deployment: real worker threads, channel NICs,
//! and a blocking client API.
//!
//! This is the shape of a real Kite deployment (§2.1) scaled into one
//! process: `nodes × workers_per_node` run-to-completion worker threads,
//! each serving `sessions_per_worker` sessions. Clients claim sessions and issue
//! operations through [`SessionHandle`]; synchronous calls block until the
//! completion arrives (the Kite API offers sync and async flavors, §6.1 —
//! both are provided here).

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use kite_common::stats::ProtoCounters;
use kite_common::{ClusterConfig, Key, KiteError, NodeId, Result, Val};
use kite_simnet::{spawn_workers, FaultPlane, StopHandle, ThreadedNet, Wake, WorkerIo};
use parking_lot::Mutex;

use crate::api::{Completion, CompletionHook, Op, OpOutput};
use crate::msg::Msg;
use crate::nodestate::NodeShared;
use crate::session::{sessions_for, ProtocolMode, SessionDriver};
use crate::worker::Worker;

/// How long synchronous client calls wait before reporting
/// [`KiteError::Timeout`] (generous: operations either complete in
/// microseconds or the cluster has lost its majority).
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// A session's op/completion channels and what ends its worker's park.
type SessionPlumbing = (Sender<Op>, Receiver<Completion>, Wake);

/// A running in-process Kite deployment.
pub struct Cluster {
    net: ThreadedNet,
    stop: Option<StopHandle>,
    shared: Vec<Arc<NodeShared>>,
    /// Unclaimed session plumbing, indexed `[node][slot]`.
    slots: Mutex<Vec<Vec<Option<SessionPlumbing>>>>,
}

impl Cluster {
    /// Build and start a cluster in the given protocol mode.
    pub fn launch(cfg: ClusterConfig, mode: ProtocolMode) -> Result<Cluster> {
        Self::launch_with(cfg, mode, None)
    }

    /// As [`Cluster::launch`], with a completion hook observing every
    /// completed operation cluster-wide (history recording in tests).
    pub fn launch_with(
        cfg: ClusterConfig,
        mode: ProtocolMode,
        hook: Option<CompletionHook>,
    ) -> Result<Cluster> {
        cfg.validate().map_err(KiteError::BadConfig)?;
        let (net, ios) = ThreadedNet::build::<Msg>(cfg.nodes, cfg.workers_per_node, 0xC0FFEE);

        let shared: Vec<Arc<NodeShared>> = (0..cfg.nodes)
            .map(|n| {
                NodeShared::new(NodeId(n as u8), cfg.clone(), Arc::clone(&net.counters[n]))
            })
            .collect();

        let mut slots: Vec<Vec<Option<SessionPlumbing>>> =
            (0..cfg.nodes).map(|_| Vec::new()).collect();

        let mut rigs: Vec<(Worker, WorkerIo<Msg>)> = Vec::new();
        for (n, per_node) in ios.into_iter().enumerate() {
            for (w, io) in per_node.into_iter().enumerate() {
                let waker = io.waker();
                let wake: Wake = Arc::new(move || waker.wake());
                let sessions = sessions_for(NodeId(n as u8), w, cfg.sessions_per_worker, |_| {
                    let (op_tx, op_rx) = unbounded();
                    let (done_tx, done_rx) = unbounded();
                    slots[n].push(Some((op_tx, done_rx, Arc::clone(&wake))));
                    SessionDriver::External { rx: op_rx, tx: done_tx }
                });
                let worker = Worker::new(w, Arc::clone(&shared[n]), mode, sessions, hook.clone());
                rigs.push((worker, io));
            }
        }

        let stop = spawn_workers(rigs, &net);
        Ok(Cluster { net, stop: Some(stop), shared, slots: Mutex::new(slots) })
    }

    /// Claim a session on `node`. `slot` ranges over
    /// `0..cfg.sessions_per_node()`; each slot can be claimed once.
    pub fn session(&self, node: NodeId, slot: u32) -> Result<SessionHandle> {
        let mut slots = self.slots.lock();
        let per_node = slots
            .get_mut(node.idx())
            .ok_or_else(|| KiteError::SessionUnavailable(format!("no node {node}")))?;
        let entry = per_node
            .get_mut(slot as usize)
            .ok_or_else(|| KiteError::SessionUnavailable(format!("no slot {slot} on {node}")))?;
        let (tx, rx, wake) = entry
            .take()
            .ok_or_else(|| KiteError::SessionUnavailable(format!("{node} slot {slot} taken")))?;
        Ok(SessionHandle::from_channels(tx, rx, wake))
    }

    /// Per-node shared state (store, epoch, delinquency) — for tests and
    /// diagnostics.
    pub fn shared(&self, node: NodeId) -> &Arc<NodeShared> {
        &self.shared[node.idx()]
    }

    /// Per-node protocol counters.
    pub fn counters(&self, node: NodeId) -> &ProtoCounters {
        &self.net.counters[node.idx()]
    }

    /// One node's core-layer metrics as `key value` text — the `proto_*`,
    /// `membership_*`, `store_*` and `op_*` lines its daemon would scrape.
    pub fn metrics_text(&self, node: NodeId) -> String {
        self.shared[node.idx()].metrics_text()
    }

    /// The fault-injection plane (lossy links, partitions, sleeps).
    pub fn faults(&self) -> &FaultPlane {
        &self.net.faults
    }

    /// Put a node to sleep for `dur` (the §8.4 failure experiment): its
    /// workers stop processing; traffic to it buffers.
    pub fn sleep_node(&self, node: NodeId, dur: Duration) {
        use kite_simnet::Clock;
        let wake = self.net.clock.now() + dur.as_nanos() as u64;
        self.net.faults.sleep_node_until(node, wake);
    }

    /// Stop all workers and tear down.
    pub fn shutdown(mut self) {
        if let Some(stop) = self.stop.take() {
            stop.stop_and_join();
        }
    }

    /// Arm a deadline watchdog: if the returned guard is not dropped within
    /// `timeout`, every worker prints an `Actor::describe` snapshot of its
    /// protocol state to stderr (from its own thread, via the runtime's
    /// dump flag), every node's metrics text follows — the scrape view a
    /// wedged daemon would serve — and the process **aborts**
    /// with a diagnostic instead of wedging forever. Threaded fault tests
    /// should arm one: a liveness bug then yields a stalled-round dump
    /// rather than a CI timeout with no evidence.
    pub fn watchdog(&self, timeout: Duration) -> Watchdog {
        let (disarm_tx, disarm_rx) = unbounded::<()>();
        let dumper = self.stop.as_ref().expect("watchdog on a running cluster").dumper();
        let shared = self.shared.clone();
        let handle = std::thread::Builder::new()
            .name("kite-watchdog".into())
            .spawn(move || {
                if disarm_rx.recv_timeout(timeout).is_ok() {
                    return; // disarmed: test finished in time
                }
                eprintln!(
                    "\n!!!! kite watchdog: no disarm within {timeout:?} — dumping state !!!!"
                );
                // The request ends every worker's park; give them a moment
                // to print.
                dumper.request();
                std::thread::sleep(Duration::from_secs(1));
                for sh in &shared {
                    eprintln!(
                        "node {}: suspected={:?} epoch={}\n{}",
                        sh.me,
                        sh.suspected(),
                        sh.epoch(),
                        sh.metrics_text(),
                    );
                }
                eprintln!("!!!! kite watchdog: aborting !!!!");
                std::process::abort();
            })
            .expect("spawn watchdog");
        Watchdog { disarm_tx, handle: Some(handle) }
    }
}

/// Guard returned by [`Cluster::watchdog`]; dropping it disarms the
/// deadline (the watchdog thread exits promptly).
pub struct Watchdog {
    disarm_tx: Sender<()>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let _ = self.disarm_tx.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(stop) = self.stop.take() {
            stop.stop_and_join();
        }
    }
}

/// A claimed client session: sync and async operation submission. Not
/// `Clone` — a session is a single program-order stream (§2.1).
///
/// Bookkeeping is two monotone counters rather than one balance:
/// `submitted` counts ops handed to the worker (each implicitly numbered in
/// session order — the worker assigns the same sequence numbers), `retired`
/// counts completions received. A [`KiteError::Timeout`] changes neither,
/// so when the late completion eventually arrives it is reconciled against
/// its own sequence number instead of being misattributed to whatever the
/// client asked for next.
pub struct SessionHandle {
    tx: Sender<Op>,
    rx: Receiver<Completion>,
    /// Ends the owning worker's park: an idle worker sleeps until its next
    /// deadline or envelope, and a submitted op is neither.
    wake: Wake,
    /// Operations submitted; the next submission gets session seq
    /// `submitted`.
    submitted: u64,
    /// Completions received; completions arrive in session order, so the
    /// next one carries seq `retired`.
    retired: u64,
}

impl SessionHandle {
    /// Assemble a handle from raw session plumbing. Used by alternative
    /// runtimes (the TCP `kite-net` node) that build the same
    /// `Session`/`SessionDriver::External` wiring as [`Cluster::launch`];
    /// the channels must belong to an unclaimed session or program order is
    /// violated. `wake` must end the park of the worker that owns the
    /// session (the threaded runtime's `WorkerWaker`, the epoll loop's
    /// eventfd): it is called after every submission.
    pub fn from_channels(tx: Sender<Op>, rx: Receiver<Completion>, wake: Wake) -> SessionHandle {
        SessionHandle { tx, rx, wake, submitted: 0, retired: 0 }
    }

    // ---- async API (§6.1) ------------------------------------------------

    /// Submit without waiting. Completions arrive in session order via
    /// [`SessionHandle::next_completion`].
    pub fn submit(&mut self, op: Op) -> Result<()> {
        self.tx.send(op).map_err(|_| KiteError::Shutdown)?;
        (self.wake)();
        self.submitted += 1;
        Ok(())
    }

    /// Number of submitted-but-unretired operations.
    pub fn outstanding(&self) -> usize {
        (self.submitted - self.retired) as usize
    }

    /// Wait for the next completion (session order).
    pub fn next_completion(&mut self) -> Result<Completion> {
        let c = self
            .rx
            .recv_timeout(CLIENT_TIMEOUT)
            .map_err(|_| KiteError::Timeout)?;
        debug_assert_eq!(c.op_id.seq, self.retired, "completions must arrive in session order");
        self.retired += 1;
        Ok(c)
    }

    // ---- sync API ----------------------------------------------------------

    fn call(&mut self, op: Op) -> Result<Completion> {
        // Retire completions of earlier ops first — after a recovered
        // timeout these are the late arrivals of ops the client already
        // gave up on, not answers to `op`.
        while self.outstanding() > 0 {
            self.next_completion()?;
        }
        let seq = self.submitted;
        self.submit(op)?;
        loop {
            let c = self.next_completion()?;
            if c.op_id.seq == seq {
                return Ok(c);
            }
            // A stray earlier completion (recovered timeout): retired by
            // next_completion; keep waiting for ours.
        }
    }

    /// Relaxed read (ES fast path when in-epoch).
    pub fn read(&mut self, key: Key) -> Result<Val> {
        match self.call(Op::Read { key })?.output {
            OpOutput::Value(v) => Ok(v),
            other => unreachable!("read completed with {other:?}"),
        }
    }

    /// Relaxed write.
    pub fn write(&mut self, key: Key, val: impl Into<Val>) -> Result<()> {
        self.call(Op::Write { key, val: val.into() })?;
        Ok(())
    }

    /// Release write (all ⇒ release ordering).
    pub fn release(&mut self, key: Key, val: impl Into<Val>) -> Result<()> {
        self.call(Op::Release { key, val: val.into() })?;
        Ok(())
    }

    /// Acquire read (acquire ⇒ all ordering).
    pub fn acquire(&mut self, key: Key) -> Result<Val> {
        match self.call(Op::Acquire { key })?.output {
            OpOutput::Value(v) => Ok(v),
            other => unreachable!("acquire completed with {other:?}"),
        }
    }

    /// Fetch-and-add; returns the previous value.
    pub fn fetch_add(&mut self, key: Key, delta: u64) -> Result<u64> {
        match self.call(Op::Faa { key, delta })?.output {
            OpOutput::Faa(old) => Ok(old),
            other => unreachable!("faa completed with {other:?}"),
        }
    }

    /// Weak CAS (may fail locally, §6.1). Returns `(swapped, observed)`.
    pub fn cas_weak(
        &mut self,
        key: Key,
        expect: impl Into<Val>,
        new: impl Into<Val>,
    ) -> Result<(bool, Val)> {
        match self.call(Op::CasWeak { key, expect: expect.into(), new: new.into() })?.output {
            OpOutput::Cas { ok, observed } => Ok((ok, observed)),
            other => unreachable!("cas completed with {other:?}"),
        }
    }

    /// Strong CAS (always checks remote replicas, §6.1).
    pub fn cas_strong(
        &mut self,
        key: Key,
        expect: impl Into<Val>,
        new: impl Into<Val>,
    ) -> Result<(bool, Val)> {
        match self.call(Op::CasStrong { key, expect: expect.into(), new: new.into() })?.output {
            OpOutput::Cas { ok, observed } => Ok((ok, observed)),
            other => unreachable!("cas completed with {other:?}"),
        }
    }
}
