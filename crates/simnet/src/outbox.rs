//! Per-step message accumulation (§6.3 opportunistic batching), with
//! recycled batch buffers.
//!
//! One flushed batch is one network datagram: every protocol message the
//! source worker produced for one destination during one scheduling step,
//! delivered together. Batching "across all protocols" is a first-class
//! design point of Kite (§6.3): ES acks, ABD rounds and Paxos phases
//! destined to the same node share a batch, amortizing per-packet overhead.
//!
//! # Buffer-recycling contract
//!
//! The steady-state send path is allocation-free. Every batch handed out by
//! [`Outbox::flush`] is a `Vec` drawn from the outbox's internal pool (or
//! freshly allocated only when the pool is dry). Whoever ends up owning a
//! batch buffer once its messages are consumed returns it with
//! [`Outbox::recycle`]:
//!
//! * the **epoll fabric** encodes each remote batch into a wire frame and
//!   recycles the batch into the sending outbox at once (inbound frames
//!   decode into the fabric's own message pool);
//! * the **simulator** recycles each delivered batch's buffer into its
//!   scratch outbox after the destination actor has drained it.
//!
//! Buffers lost to fault injection (dropped batches) are simply freed;
//! the pool refills from subsequent deliveries. The pool is bounded
//! ([`POOL_CAP`]) so a burst cannot pin memory forever.

use kite_common::NodeId;

/// Upper bound on pooled spare buffers (per outbox).
const POOL_CAP: usize = 64;

/// Initial capacity of fresh batch buffers. Sized to the batches the
/// runtimes actually see (1.1–2 messages per envelope): with thousands of
/// envelopes in flight, a page per buffer was tens of MB of resident set.
/// A bigger batch grows its buffer, and the pool keeps grown buffers.
const BUF_CAP: usize = 8;

/// Accumulates outgoing messages during one actor step, batched per
/// destination node. Flushed by the scheduler at the end of the step.
///
/// Per-destination buffers are replaced from the recycle pool on flush (see
/// the module docs), so steady-state sends allocate nothing.
pub struct Outbox<P> {
    bufs: Vec<Vec<P>>,
    /// Destinations with at least one pending message (push order, small:
    /// ≤ nodes).
    dirty: Vec<u8>,
    /// Spare buffers returned by consumers, handed back out on flush.
    pool: Vec<Vec<P>>,
    /// The sender's current membership epoch, which the driving runtime
    /// stamps on every batch it flushes. The actor
    /// refreshes it at the end of each step (after any batch it produced
    /// was composed under that epoch's membership view). Defaults to 0 —
    /// correct forever for actors that never reconfigure.
    stamp: u32,
}

impl<P> Outbox<P> {
    /// An outbox addressing `nodes` destinations.
    pub fn new(nodes: usize) -> Self {
        Outbox {
            bufs: (0..nodes).map(|_| Vec::with_capacity(BUF_CAP)).collect(),
            dirty: Vec::new(),
            pool: Vec::new(),
            stamp: 0,
        }
    }

    /// Set the membership-epoch stamp runtimes copy into flushed batches.
    #[inline]
    pub fn set_stamp(&mut self, mepoch: u32) {
        self.stamp = mepoch;
    }

    /// The current membership-epoch stamp.
    #[inline]
    pub fn stamp(&self) -> u32 {
        self.stamp
    }

    /// Number of destinations this outbox can address.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.bufs.len()
    }

    /// Queue `msg` for `dst`. Sending to one's own node id is allowed (the
    /// scheduler will loop it back); Kite's workers shortcut self-delivery
    /// instead, but baselines may rely on loopback.
    #[inline]
    pub fn send(&mut self, dst: NodeId, msg: P) {
        let buf = &mut self.bufs[dst.idx()];
        if buf.is_empty() {
            self.dirty.push(dst.0);
        }
        buf.push(msg);
    }

    /// Queue a clone of `msg` for every node except `me` — the broadcast
    /// primitive, implemented as unicasts exactly like the paper (§6.3).
    /// The N−1 clones copy only the message value itself; Kite keeps
    /// `Msg` at one cache line with its large payloads `Arc`-shared, so a
    /// broadcast writes the payload once and the clones are refcount
    /// bumps plus a 64-byte memcpy each.
    #[inline]
    pub fn broadcast(&mut self, me: NodeId, msg: P)
    where
        P: Clone,
    {
        let n = self.bufs.len();
        for dst in 0..n {
            if dst != me.idx() {
                self.send(NodeId(dst as u8), msg.clone());
            }
        }
    }

    /// Queue a clone of `msg` for every member of `set` except `me`.
    #[inline]
    pub fn multicast(&mut self, me: NodeId, set: kite_common::NodeSet, msg: P)
    where
        P: Clone,
    {
        for dst in set {
            if dst != me {
                self.send(dst, msg.clone());
            }
        }
    }

    /// True if no messages are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Total messages pending across all destinations.
    pub fn pending(&self) -> usize {
        self.bufs.iter().map(Vec::len).sum()
    }

    /// Return an emptied batch buffer to the pool (see the module docs for
    /// who calls this). Contents are cleared; capacity is retained.
    #[inline]
    pub fn recycle(&mut self, mut buf: Vec<P>) {
        if self.pool.len() < POOL_CAP && buf.capacity() > 0 {
            buf.clear();
            self.pool.push(buf);
        }
    }

    /// Number of spare buffers currently pooled (diagnostics/tests).
    #[inline]
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Drain all pending batches, invoking `f(dst, batch)` per destination.
    /// Handed-out buffers come back via [`Outbox::recycle`]; replacements
    /// are drawn from the pool, so a steady cycle allocates nothing.
    // kite-lint: no-alloc
    pub fn flush(&mut self, mut f: impl FnMut(NodeId, Vec<P>)) {
        for &d in &self.dirty {
            let buf = &mut self.bufs[d as usize];
            if !buf.is_empty() {
                // kite-lint: allow(no-alloc) — pool-dry cold path only: a
                // steady flush→recycle cycle always finds a pooled buffer;
                // the dynamic alloc-guard test asserts exactly that.
                let replacement =
                    self.pool.pop().unwrap_or_else(|| Vec::with_capacity(BUF_CAP));
                let batch = std::mem::replace(buf, replacement);
                f(NodeId(d), batch);
            }
        }
        self.dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_common::NodeSet;

    #[test]
    fn send_and_flush_batches_per_destination() {
        let mut ob: Outbox<u32> = Outbox::new(3);
        ob.send(NodeId(1), 10);
        ob.send(NodeId(1), 11);
        ob.send(NodeId(2), 20);
        assert_eq!(ob.pending(), 3);
        let mut got = Vec::new();
        ob.flush(|dst, batch| got.push((dst, batch)));
        got.sort_by_key(|(d, _)| d.0);
        assert_eq!(got, vec![(NodeId(1), vec![10, 11]), (NodeId(2), vec![20])]);
        assert!(ob.is_empty());
    }

    #[test]
    fn flush_on_empty_is_noop() {
        let mut ob: Outbox<u32> = Outbox::new(2);
        let mut calls = 0;
        ob.flush(|_, _| calls += 1);
        assert_eq!(calls, 0);
    }

    #[test]
    fn broadcast_skips_self() {
        let mut ob: Outbox<u8> = Outbox::new(5);
        ob.broadcast(NodeId(2), 7);
        let mut dsts = Vec::new();
        ob.flush(|d, b| {
            assert_eq!(b, vec![7]);
            dsts.push(d.0);
        });
        dsts.sort_unstable();
        assert_eq!(dsts, vec![0, 1, 3, 4]);
    }

    #[test]
    fn multicast_targets_set_minus_self() {
        let mut ob: Outbox<u8> = Outbox::new(5);
        let set: NodeSet = [NodeId(0), NodeId(2), NodeId(4)].into_iter().collect();
        ob.multicast(NodeId(2), set, 9);
        let mut dsts = Vec::new();
        ob.flush(|d, _| dsts.push(d.0));
        dsts.sort_unstable();
        assert_eq!(dsts, vec![0, 4]);
    }

    #[test]
    fn reuse_after_flush() {
        let mut ob: Outbox<u8> = Outbox::new(2);
        ob.send(NodeId(0), 1);
        ob.flush(|_, _| {});
        ob.send(NodeId(0), 2);
        let mut total = 0;
        ob.flush(|_, b| total += b.len());
        assert_eq!(total, 1);
    }

    #[test]
    fn recycled_buffers_are_handed_back_out() {
        let mut ob: Outbox<u8> = Outbox::new(2);
        ob.send(NodeId(0), 1);
        let mut batch = None;
        ob.flush(|_, b| batch = Some(b));
        let buf = batch.unwrap();
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        ob.recycle(buf);
        assert_eq!(ob.pooled(), 1);
        // Next flush hands the pooled buffer back out: same allocation.
        ob.send(NodeId(1), 2);
        let mut batch = None;
        ob.flush(|_, b| batch = Some(b));
        ob.send(NodeId(1), 3);
        let mut second = None;
        ob.flush(|_, b| second = Some(b));
        let reused = second.unwrap();
        assert_eq!(reused.capacity(), cap);
        assert_eq!(reused.as_ptr(), ptr, "pooled allocation must be reused");
        let _ = batch;
    }

    #[test]
    fn pool_is_bounded() {
        let mut ob: Outbox<u8> = Outbox::new(1);
        for _ in 0..200 {
            ob.recycle(Vec::with_capacity(8));
        }
        assert!(ob.pooled() <= 64);
    }

    #[test]
    fn steady_state_flush_does_not_allocate() {
        // Prime the pool, then check that repeated broadcast/flush/recycle
        // cycles recirculate the same allocations.
        let mut ob: Outbox<u64> = Outbox::new(5);
        let mut returned: Vec<Vec<u64>> = Vec::new();
        for round in 0..50 {
            ob.broadcast(NodeId(0), round);
            ob.flush(|_, b| returned.push(b));
            let mut ptrs: Vec<*const u64> = returned.iter().map(|b| b.as_ptr()).collect();
            for b in returned.drain(..) {
                ob.recycle(b);
            }
            if round > 0 {
                // All four batch buffers must be recycled allocations.
                ptrs.sort_unstable();
                assert_eq!(ptrs.len(), 4);
            }
        }
        assert!(ob.pooled() >= 4);
    }
}
