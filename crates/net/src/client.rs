//! Client sessions: the Kite API's sync and async calls (§6.1) over a
//! socket, **pipelined**. This is the only client of a node — a
//! [`crate::Cluster`] hands these out on loopback, and remote machines use
//! the same call.
//!
//! A [`RemoteSession`] connects to a node's fabric listener with a client
//! hello claiming one session slot, then submits operations as
//! length-prefixed frames over a nonblocking socket. Many operations may
//! be in flight at once: submissions batch into a write buffer (one flush
//! = one syscall for a whole window) and completions are matched by the
//! op's session sequence number through a reorder window — out-of-order
//! or duplicate completion frames resolve to the right call, a late
//! completion after a recovered timeout is retired instead of being
//! misattributed, and [`RemoteSession::next_completion`] always returns
//! completions in session order. The synchronous API (`read`, `write`,
//! `release`, …) pipelines with window 1.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use kite::api::{Completion, Op, OpOutput};
use kite::wire::{self, ClientFrame, Hello};
use kite_common::{Key, KiteError, Membership, Result, SessionId, Val, MEMBERSHIP_KEY};

use crate::ring::ReadBuf;

/// How long synchronous calls wait before reporting
/// [`KiteError::Timeout`] (generous: operations either complete in
/// microseconds or the cluster has lost its majority).
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Auto-flush threshold: submissions buffered past this many bytes push
/// to the socket even without an explicit flush.
const WBUF_FLUSH: usize = 32 << 10;
/// Hard cap on buffered unsent bytes before `submit` blocks draining the
/// socket (keeps a backpressured client bounded).
const WBUF_CAP: usize = 4 << 20;
/// Read chunk size.
const READ_CHUNK: usize = 64 << 10;

/// A claimed remote session. Not `Clone` — a session is a single
/// program-order stream.
pub struct RemoteSession {
    id: SessionId,
    stream: TcpStream,
    /// Operations submitted; the next submission gets session seq
    /// `submitted`.
    submitted: u64,
    /// Completions retired in session order; `window[i]` (when filled)
    /// holds seq `retired + i`.
    retired: u64,
    /// Reorder window: completions that arrived, indexed by seq distance
    /// from `retired`, with their client-side arrival instant.
    window: VecDeque<Option<(Completion, Instant)>>,
    /// Duplicate completion frames dropped (stale seq or already-filled
    /// window slot).
    dups: u64,
    /// Encoded-but-unsent submissions; `wpos` bytes already written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Unparsed inbound bytes.
    rbuf: ReadBuf,
    /// A non-completion frame received out of band (hello replies).
    ctrl: Option<ClientFrame>,
}

impl RemoteSession {
    /// Connect to a node's listener at `addr` and claim session `slot`.
    pub fn connect(addr: &str, slot: u32) -> Result<RemoteSession> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| KiteError::Net(format!("connect {addr}: {e}")))?;
        stream.set_nodelay(true).ok();
        stream
            .set_nonblocking(true)
            .map_err(|e| KiteError::Net(format!("set nonblocking: {e}")))?;
        let mut s = RemoteSession {
            id: SessionId::new(kite_common::NodeId(0), slot),
            stream,
            submitted: 0,
            retired: 0,
            window: VecDeque::new(),
            dups: 0,
            wbuf: Vec::with_capacity(4096),
            wpos: 0,
            rbuf: ReadBuf::new(READ_CHUNK),
            ctrl: None,
        };
        s.wbuf.extend_from_slice(&wire::encode_hello(Hello::Client { slot }));
        let deadline = Instant::now() + CLIENT_TIMEOUT;
        s.flush_until(deadline)?;
        // Wait for the hello reply.
        loop {
            // A refused claim is HelloErr-then-close: surface the reason,
            // not the EOF that follows it.
            let pumped = s.pump_reads();
            if let Some(ctrl) = s.ctrl.take() {
                return match ctrl {
                    ClientFrame::HelloOk { session } => {
                        s.id = session;
                        Ok(s)
                    }
                    ClientFrame::HelloErr { reason } => Err(KiteError::SessionUnavailable(reason)),
                    other => Err(KiteError::Net(format!("unexpected hello reply: {other:?}"))),
                };
            }
            pumped?;
            if !s.window.is_empty() {
                return Err(KiteError::Net("completion before hello reply".into()));
            }
            if Instant::now() >= deadline {
                return Err(KiteError::Timeout);
            }
            s.wait_progress(deadline)?;
        }
    }

    /// This session's id (node + slot), as assigned by the server.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Number of submitted-but-unretired operations.
    pub fn outstanding(&self) -> usize {
        (self.submitted - self.retired) as usize
    }

    /// Duplicate completion frames observed and dropped so far.
    pub fn duplicates(&self) -> u64 {
        self.dups
    }

    // ---- pipelined API --------------------------------------------------

    /// Queue one operation for submission and return its session sequence
    /// number. Buffered submissions push to the socket when the buffer
    /// grows past a threshold or on [`RemoteSession::flush`]; completions
    /// arrive (in session order) via [`RemoteSession::next_completion`] /
    /// [`RemoteSession::poll_completion`].
    pub fn submit(&mut self, op: Op) -> Result<u64> {
        let seq = self.submitted;
        wire::encode_client_frame(&ClientFrame::Submit(op), &mut self.wbuf);
        self.submitted += 1;
        if self.wbuf.len() - self.wpos >= WBUF_FLUSH {
            self.try_flush()?;
            if self.wbuf.len() - self.wpos >= WBUF_CAP {
                // Socket backpressure: drain (and keep reading, so a server
                // blocked on writing completions to us cannot deadlock the
                // pair) before buffering more.
                self.flush_until(Instant::now() + CLIENT_TIMEOUT)?;
            }
        }
        Ok(seq)
    }

    /// Push every buffered submission to the socket (blocking until the
    /// kernel takes them).
    pub fn flush(&mut self) -> Result<()> {
        self.flush_until(Instant::now() + CLIENT_TIMEOUT)
    }

    /// Nonblocking progress: flush what the socket accepts, read what has
    /// arrived, and return the next in-order completion if it is ready.
    /// The `Instant` is the completion frame's client-side arrival time
    /// (latency measurement without head-of-line skew).
    pub fn poll_completion(&mut self) -> Result<Option<(Completion, Instant)>> {
        self.try_flush()?;
        self.pump_reads()?;
        if let Some(front) = self.window.front_mut() {
            if front.is_some() {
                let (c, at) = self.window.pop_front().flatten().expect("front is some");
                self.retired += 1;
                return Ok(Some((c, at)));
            }
        }
        Ok(None)
    }

    /// Wait for the next completion (session order).
    pub fn next_completion(&mut self) -> Result<Completion> {
        self.next_completion_arrival().map(|(c, _)| c)
    }

    /// Wait for the next completion, also returning its arrival instant.
    pub fn next_completion_arrival(&mut self) -> Result<(Completion, Instant)> {
        let deadline = Instant::now() + CLIENT_TIMEOUT;
        loop {
            if let Some(got) = self.poll_completion()? {
                return Ok(got);
            }
            if Instant::now() >= deadline {
                return Err(KiteError::Timeout);
            }
            self.wait_progress(deadline)?;
        }
    }

    /// Public flavour of the progress wait for open-loop drivers: block up
    /// to `timeout` until the socket may have work (completion bytes
    /// readable, or buffered submits flushable), then return. The caller's
    /// next [`poll_completion`](Self::poll_completion) does the actual
    /// work. This lets a fixed-arrival-rate loop sleep between schedule
    /// slots instead of spinning — on few-core boxes a spinning client
    /// starves the very event loops it is waiting on.
    pub fn wait_event(&self, timeout: Duration) -> Result<()> {
        self.wait_progress(Instant::now() + timeout)
    }

    /// Sleep in `poll(2)` until the socket can make progress: readable
    /// always wakes; writable additionally wakes while unsent bytes are
    /// buffered. Blocking in the kernel (instead of a spin/park loop)
    /// matters on loaded or few-core machines — a waiting client must
    /// leave the CPU to the server loops it is waiting on.
    fn wait_progress(&self, deadline: Instant) -> Result<()> {
        use std::os::fd::AsRawFd;
        // Cap each sleep so the caller's deadline check still runs.
        let ms = deadline
            .saturating_duration_since(Instant::now())
            .min(Duration::from_millis(100))
            .as_millis()
            .max(1) as i32;
        let fd = self.stream.as_raw_fd();
        let r = if self.wpos < self.wbuf.len() {
            crate::sys::wait_rw(fd, ms)
        } else {
            crate::sys::wait_readable(fd, ms)
        };
        r.map(|_| ()).map_err(|e| KiteError::Net(format!("poll: {e}")))
    }

    // ---- socket plumbing ------------------------------------------------

    /// Write buffered bytes until the socket would block.
    fn try_flush(&mut self) -> Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(KiteError::Shutdown),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(KiteError::Net(format!("write: {e}"))),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    /// Flush everything buffered by `deadline`, reading inbound frames
    /// while blocked so the server can always make progress.
    fn flush_until(&mut self, deadline: Instant) -> Result<()> {
        loop {
            self.try_flush()?;
            if self.wpos == 0 && self.wbuf.is_empty() {
                return Ok(());
            }
            self.pump_reads()?;
            if Instant::now() >= deadline {
                return Err(KiteError::Net("timed out flushing submissions".into()));
            }
            self.wait_progress(deadline)?;
        }
    }

    /// Read until the socket would block; parse and dispatch every
    /// complete frame.
    fn pump_reads(&mut self) -> Result<()> {
        loop {
            match self.stream.read(self.rbuf.space()) {
                Ok(0) => {
                    self.parse_frames()?;
                    return Err(KiteError::Shutdown);
                }
                Ok(n) => {
                    self.rbuf.commit(n);
                    self.parse_frames()?;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(KiteError::Net(format!("read: {e}"))),
            }
        }
    }

    fn parse_frames(&mut self) -> Result<()> {
        let bad = |e: wire::WireError| KiteError::Net(format!("bad frame: {e}"));
        let mut used = 0usize;
        loop {
            let buf = &self.rbuf.filled()[used..];
            let Some((body, rest)) = wire::next_frame(buf).map_err(bad)? else { break };
            let frame = wire::decode_client_frame(body).map_err(bad)?;
            used += buf.len() - rest.len();
            self.dispatch(frame)?;
        }
        self.rbuf.consume(used);
        Ok(())
    }

    /// Slot a decoded frame: completions land in the reorder window by
    /// seq; duplicates (stale seq, or a window slot already filled) are
    /// dropped and counted — never misattributed.
    fn dispatch(&mut self, frame: ClientFrame) -> Result<()> {
        match frame {
            ClientFrame::Completion(c) => {
                let seq = c.op_id.seq;
                if seq < self.retired {
                    self.dups += 1; // already retired: stale duplicate
                    return Ok(());
                }
                if seq >= self.submitted {
                    return Err(KiteError::Net(format!(
                        "completion for unsubmitted seq {seq} (submitted {})",
                        self.submitted
                    )));
                }
                let idx = (seq - self.retired) as usize;
                if self.window.len() <= idx {
                    self.window.resize_with(idx + 1, || None);
                }
                match &mut self.window[idx] {
                    Some(_) => self.dups += 1, // duplicate in-window frame
                    slot @ None => *slot = Some((c, Instant::now())),
                }
                Ok(())
            }
            other => {
                self.ctrl = Some(other);
                Ok(())
            }
        }
    }

    // ---- sync API -------------------------------------------------------

    /// Submit `op` and wait for *its* completion — the one primitive every
    /// synchronous call below is. Earlier unretired completions (a backlog
    /// of async submissions, or the late answer to a timed-out call) are
    /// retired first, never returned as this op's.
    pub fn call(&mut self, op: Op) -> Result<Completion> {
        // Retire stray completions of earlier (timed-out) ops first.
        while self.outstanding() > 0 {
            self.next_completion()?;
        }
        let seq = self.submit(op)?;
        self.flush()?;
        loop {
            let c = self.next_completion()?;
            if c.op_id.seq == seq {
                return Ok(c);
            }
        }
    }

    /// Relaxed read.
    pub fn read(&mut self, key: Key) -> Result<Val> {
        match self.call(Op::Read { key })?.output {
            OpOutput::Value(v) => Ok(v),
            other => Err(KiteError::Net(format!("read completed with {other:?}"))),
        }
    }

    /// Relaxed write.
    pub fn write(&mut self, key: Key, val: impl Into<Val>) -> Result<()> {
        self.call(Op::Write { key, val: val.into() })?;
        Ok(())
    }

    /// Release write.
    pub fn release(&mut self, key: Key, val: impl Into<Val>) -> Result<()> {
        self.call(Op::Release { key, val: val.into() })?;
        Ok(())
    }

    /// Acquire read.
    pub fn acquire(&mut self, key: Key) -> Result<Val> {
        match self.call(Op::Acquire { key })?.output {
            OpOutput::Value(v) => Ok(v),
            other => Err(KiteError::Net(format!("acquire completed with {other:?}"))),
        }
    }

    /// Fetch-and-add; returns the previous value.
    pub fn fetch_add(&mut self, key: Key, delta: u64) -> Result<u64> {
        match self.call(Op::Faa { key, delta })?.output {
            OpOutput::Faa(old) => Ok(old),
            other => Err(KiteError::Net(format!("faa completed with {other:?}"))),
        }
    }

    /// Weak CAS; returns `(swapped, observed)`.
    pub fn cas_weak(
        &mut self,
        key: Key,
        expect: impl Into<Val>,
        new: impl Into<Val>,
    ) -> Result<(bool, Val)> {
        match self.call(Op::CasWeak { key, expect: expect.into(), new: new.into() })?.output {
            OpOutput::Cas { ok, observed } => Ok((ok, observed)),
            other => Err(KiteError::Net(format!("cas completed with {other:?}"))),
        }
    }

    /// Strong CAS; returns `(swapped, observed)`.
    pub fn cas_strong(
        &mut self,
        key: Key,
        expect: impl Into<Val>,
        new: impl Into<Val>,
    ) -> Result<(bool, Val)> {
        match self.call(Op::CasStrong { key, expect: expect.into(), new: new.into() })?.output {
            OpOutput::Cas { ok, observed } => Ok((ok, observed)),
            other => Err(KiteError::Net(format!("cas completed with {other:?}"))),
        }
    }

    /// Change the cluster's membership, the one way it is done: acquire
    /// [`MEMBERSHIP_KEY`], derive the successor with `change`, strong-CAS
    /// it in — an ordinary per-key Paxos RMW — and, when another change
    /// landed first, re-read and re-derive against it, so epochs stay
    /// gapless and no change is silently dropped.
    ///
    /// An empty key means no change has committed yet and the cluster runs
    /// its bootstrap membership, which only the caller can derive
    /// (`bootstrap` is called then). The bootstrap's epoch is 0 and every
    /// stored membership's is at least 1, so `change` tells them apart by
    /// `epoch`. `change` returns `None` when the current membership already
    /// is what the caller wants; nothing is written then. Returns the
    /// membership in force afterwards.
    pub fn change_membership(
        &mut self,
        bootstrap: impl Fn() -> Membership,
        mut change: impl FnMut(Membership) -> Option<Membership>,
    ) -> Result<Membership> {
        loop {
            let cur_val = self.acquire(MEMBERSHIP_KEY)?;
            let cur = Membership::from_val(&cur_val).unwrap_or_else(&bootstrap);
            let Some(next) = change(cur) else { return Ok(cur) };
            if self.cas_strong(MEMBERSHIP_KEY, cur_val, next.to_val())?.0 {
                return Ok(next);
            }
        }
    }
}

