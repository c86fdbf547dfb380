//! Bounded per-peer outbound rings, the buffer pool behind them, and the
//! per-connection inbound buffer.
//!
//! A ring holds fully-encoded wire frames waiting for socket writability.
//! Capacity is bounded in both frames and bytes; a push that would exceed
//! either cap is refused and the frame is shed — the link behaves like a
//! lossy NIC under backpressure and protocol retransmission recovers, which
//! keeps a stalled peer from growing sender memory without bound.
//!
//! A [`ReadBuf`] is the inbound mirror: bytes land at a fill cursor in a
//! buffer that was zero-filled once, when the connection was registered.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::net::TcpStream;
use std::sync::Mutex;

/// Max frames queued per ring before new frames are shed.
pub const RING_CAP_FRAMES: usize = 1024;
/// Max bytes queued per ring before new frames are shed.
pub const RING_CAP_BYTES: usize = 8 << 20;
/// Max iovecs per `writev` call.
const WRITEV_BATCH: usize = 32;

/// Shared free-list of reusable buffers so steady-state encode/decode paths
/// allocate nothing. Buffers above the per-buffer byte cap are dropped rather
/// than cached.
pub struct Pool<T> {
    free: Mutex<Vec<Vec<T>>>,
    cap: usize,
}

impl<T> Pool<T> {
    /// Pool caching at most `cap` buffers.
    pub fn new(cap: usize) -> Pool<T> {
        Pool { free: Mutex::new(Vec::new()), cap }
    }

    /// Take a cleared buffer from the pool (or allocate a fresh one).
    pub fn pop(&self) -> Vec<T> {
        self.free.lock().unwrap().pop().unwrap_or_default()
    }

    /// Return a buffer to the pool. Contents are cleared.
    pub fn put(&self, mut buf: Vec<T>) {
        buf.clear();
        let mut free = self.free.lock().unwrap();
        if free.len() < self.cap {
            free.push(buf);
        }
    }
}

/// Outcome of a ring drain attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drain {
    /// Every queued frame was written; EPOLLOUT interest can be dropped.
    Emptied,
    /// The socket would block with frames still queued; keep EPOLLOUT armed.
    Blocked,
}

/// Bounded queue of encoded frames with partial-write tracking and vectored
/// drain.
pub struct OutRing {
    q: VecDeque<Vec<u8>>,
    /// Bytes of `q[0]` already written to the socket.
    head_off: usize,
    bytes: usize,
    cap_frames: usize,
    cap_bytes: usize,
    /// `writev` calls issued over the ring's lifetime.
    writevs: u64,
}

impl OutRing {
    /// Ring with the default caps.
    pub fn new() -> OutRing {
        OutRing::with_caps(RING_CAP_FRAMES, RING_CAP_BYTES)
    }

    /// Ring with explicit caps (tests shrink these to force sheds quickly).
    pub fn with_caps(cap_frames: usize, cap_bytes: usize) -> OutRing {
        OutRing { q: VecDeque::new(), head_off: 0, bytes: 0, cap_frames, cap_bytes, writevs: 0 }
    }

    /// `writev` calls [`OutRing::drain_to`] has issued so far (monotone; the
    /// event loop publishes the per-drain delta as a loop-health counter).
    pub fn writevs(&self) -> u64 {
        self.writevs
    }

    /// Queued frame count.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Queued bytes (not yet handed to the kernel).
    pub fn bytes(&self) -> usize {
        self.bytes - self.head_off
    }

    /// Enqueue an encoded frame. `Err(buf)` hands the frame back when either
    /// cap would be exceeded — the caller counts the shed and recycles.
    pub fn push(&mut self, buf: Vec<u8>) -> Result<(), Vec<u8>> {
        if self.q.len() >= self.cap_frames || self.bytes + buf.len() > self.cap_bytes {
            return Err(buf);
        }
        self.bytes += buf.len();
        self.q.push_back(buf);
        Ok(())
    }

    /// Write as much as the socket accepts via `write_vectored`, recycling
    /// fully-written frames into `pool`. Io errors other than `WouldBlock`
    /// propagate (the caller tears the connection down). The iovec array
    /// lives on the stack: a drain allocates nothing.
    // kite-lint: no-alloc
    pub fn drain_to(&mut self, stream: &mut TcpStream, pool: &Pool<u8>) -> io::Result<Drain> {
        while !self.q.is_empty() {
            let mut slices = [IoSlice::new(&[]); WRITEV_BATCH];
            let mut used = 0;
            for (slot, buf) in slices.iter_mut().zip(self.q.iter()) {
                let start = if used == 0 { self.head_off } else { 0 };
                *slot = IoSlice::new(&buf[start..]);
                used += 1;
            }
            self.writevs += 1;
            let n = match stream.write_vectored(&slices[..used]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Drain::Blocked),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.advance(n, pool);
        }
        Ok(Drain::Emptied)
    }

    // kite-lint: no-alloc
    fn advance(&mut self, mut n: usize, pool: &Pool<u8>) {
        while n > 0 {
            let head_len = self.q[0].len() - self.head_off;
            if n >= head_len {
                n -= head_len;
                self.bytes -= self.q[0].len();
                self.head_off = 0;
                let buf = self.q.pop_front().expect("ring head");
                pool.put(buf);
            } else {
                self.head_off += n;
                n = 0;
            }
        }
    }

    /// Drop everything queued (connection died); frames go back to the pool.
    pub fn clear_into(&mut self, pool: &Pool<u8>) {
        self.head_off = 0;
        self.bytes = 0;
        while let Some(buf) = self.q.pop_front() {
            pool.put(buf);
        }
    }
}

impl Default for OutRing {
    fn default() -> Self {
        OutRing::new()
    }
}

/// Inbound byte buffer of one connection: the whole `Vec` stays initialized
/// (zero-filled once, at construction) and `fill` marks how much of it holds
/// unparsed bytes, so a read lands in `space()` with no per-read memset and
/// no `unsafe`. Frames are parsed out of `filled()`; `consume` moves the
/// partial tail back to the front.
pub struct ReadBuf {
    buf: Vec<u8>,
    fill: usize,
    chunk: usize,
}

impl ReadBuf {
    /// A buffer of `chunk` (> 0) bytes — also the step it grows by when a
    /// single frame outgrows it.
    pub fn new(chunk: usize) -> ReadBuf {
        assert!(chunk > 0, "a zero-byte read buffer can never be read into");
        ReadBuf { buf: vec![0; chunk], fill: 0, chunk }
    }

    /// The unfilled tail to read into. Never empty: a buffer filled to the
    /// brim by one partial frame grows by a chunk first (the only zero-fill
    /// after construction, and only for frames past one chunk).
    pub fn space(&mut self) -> &mut [u8] {
        if self.fill == self.buf.len() {
            self.buf.resize(self.fill + self.chunk, 0);
        }
        &mut self.buf[self.fill..]
    }

    /// Mark `n` bytes of the last [`ReadBuf::space`] as filled by a read.
    pub fn commit(&mut self, n: usize) {
        self.fill += n;
        debug_assert!(self.fill <= self.buf.len());
    }

    /// The bytes read and not yet consumed.
    pub fn filled(&self) -> &[u8] {
        &self.buf[..self.fill]
    }

    /// Drop `filled()[..pos]`, keeping the unparsed tail at the front.
    pub fn consume(&mut self, pos: usize) {
        if pos > 0 {
            self.buf.copy_within(pos..self.fill, 0);
            self.fill -= pos;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_refuses_past_frame_cap() {
        let mut r = OutRing::with_caps(2, 1 << 20);
        assert!(r.push(vec![1]).is_ok());
        assert!(r.push(vec![2]).is_ok());
        assert!(r.push(vec![3]).is_err());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn read_buf_keeps_the_partial_tail_and_grows_only_when_full() {
        let mut b = ReadBuf::new(8);
        b.space()[..6].copy_from_slice(b"abcdef");
        b.commit(6);
        b.consume(4);
        assert_eq!(b.filled(), b"ef");
        assert_eq!(b.space().len(), 6);
        b.space().copy_from_slice(b"ghijkl");
        b.commit(6);
        assert_eq!(b.filled(), b"efghijkl");
        assert_eq!(b.space().len(), 8, "full: grew by one chunk");
        b.consume(8);
        assert!(b.filled().is_empty());
        assert_eq!(b.space().len(), 16);
    }

    #[test]
    fn push_refuses_past_byte_cap() {
        let mut r = OutRing::with_caps(64, 10);
        assert!(r.push(vec![0; 6]).is_ok());
        assert!(r.push(vec![0; 6]).is_err());
        assert!(r.push(vec![0; 4]).is_ok());
        assert_eq!(r.bytes(), 10);
    }
}
