//! The blocking client API of an in-process deployment: a claimed
//! session's sync and async calls (the Kite API offers both flavors,
//! §6.1). The deployment itself — `nodes` real nodes on loopback sockets —
//! is `kite_net::Cluster`, which hands these out.

use std::time::Duration;

use crossbeam::channel::{Receiver, Sender};
use kite_common::{Key, KiteError, Result, Val};
use kite_simnet::Wake;

use crate::api::{Completion, Op, OpOutput};

/// How long synchronous client calls wait before reporting
/// [`KiteError::Timeout`] (generous: operations either complete in
/// microseconds or the cluster has lost its majority).
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

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
    /// Assemble a handle from raw session plumbing: the op and completion
    /// channels of a `SessionDriver::External` session (`kite-net`'s node
    /// runtime builds them). The channels must belong to an unclaimed
    /// session or program order is violated. `wake` must end the park of
    /// the worker that owns the session (the epoll loop's eventfd): it is
    /// called after every submission.
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
