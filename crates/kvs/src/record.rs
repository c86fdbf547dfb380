//! A single key's record: seqlock-protected inline data plus lazily
//! allocated Paxos metadata (§6.2).

use std::cell::UnsafeCell;
use std::sync::OnceLock;

use kite_common::{Epoch, Lc, Val};
use parking_lot::Mutex;

use crate::paxos_meta::PaxosMeta;
use crate::seqlock::SeqLock;

/// Maximum value size storable in a record. MICA-style inline storage keeps
/// the seqlock-protected payload `Copy` so optimistic readers can snapshot
/// it without locking. The paper's workloads use 32-byte values; 64 leaves
/// headroom for the lock-free data-structure nodes.
pub const MAX_VAL: usize = 64;

/// The seqlock-protected portion of a record. `Copy` on purpose: readers
/// copy the whole struct out and validate afterwards.
#[derive(Clone, Copy)]
pub(crate) struct RecordData {
    /// Per-key Lamport clock: the write-serialization point for ES and ABD.
    pub lc: Lc,
    /// Per-key epoch-id (§4.2): key is in-epoch iff this equals the machine
    /// epoch-id.
    pub epoch: u64,
    /// Value length.
    pub len: u8,
    /// Inline value bytes.
    pub buf: [u8; MAX_VAL],
}

impl RecordData {
    pub(crate) const fn empty() -> Self {
        RecordData { lc: Lc::ZERO, epoch: 0, len: 0, buf: [0; MAX_VAL] }
    }

    #[inline]
    pub(crate) fn set_val(&mut self, val: &Val) {
        let b = val.as_bytes();
        assert!(b.len() <= MAX_VAL, "value of {} bytes exceeds record capacity {}", b.len(), MAX_VAL);
        self.len = b.len() as u8;
        self.buf[..b.len()].copy_from_slice(b);
    }

    #[inline]
    pub(crate) fn val(&self) -> Val {
        Val::from_bytes(&self.buf[..self.len as usize])
    }
}

/// A consistent snapshot of a record, as returned by store reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadView {
    /// Current value.
    pub val: Val,
    /// The value's Lamport stamp.
    pub lc: Lc,
    /// Epoch the key was last accessed in (fast/slow path, §4.2).
    pub epoch: Epoch,
}

/// One key's storage: seqlock + inline data + optional Paxos structure.
pub(crate) struct Record {
    pub lock: SeqLock,
    pub data: UnsafeCell<RecordData>,
    /// Allocated on the first RMW touching this key (§6.2: "each key
    /// contains a pointer to its own Paxos-structure"). We guard it with a
    /// `Mutex` rather than re-entering the seqlock because the Paxos state
    /// is not `Copy`; the paper's trick of sharing the seqlock is an
    /// optimization, not a correctness requirement.
    pub paxos: OnceLock<Box<Mutex<PaxosMeta>>>,
}

// SAFETY: all access to `data` goes through the record's seqlock protocol
// (see `Store`); `paxos` is internally synchronized.
unsafe impl Sync for Record {}
// SAFETY: same argument as Sync — no thread-affine state; ownership moves
// only the atomics, the UnsafeCell payload and the OnceLock box.
unsafe impl Send for Record {}

impl Record {
    pub(crate) fn new() -> Self {
        Record {
            lock: SeqLock::new(),
            data: UnsafeCell::new(RecordData::empty()),
            paxos: OnceLock::new(),
        }
    }

    /// Optimistically snapshot the record.
    #[inline]
    pub(crate) fn snapshot(&self) -> RecordData {
        let mut spins = 0u32;
        loop {
            let begin = self.lock.read_begin();
            // SAFETY: we copy the (Copy) payload out; if a writer raced, the
            // validation below fails and the copy is discarded without being
            // interpreted. Volatile forbids the compiler from caching fields
            // across the fence.
            let copy = unsafe { std::ptr::read_volatile(self.data.get()) };
            if self.lock.read_validate(begin) {
                return copy;
            }
            spins += 1;
            if spins < 16 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Run `f` on the record data under the write lock.
    #[inline]
    pub(crate) fn update<R>(&self, f: impl FnOnce(&mut RecordData) -> R) -> R {
        let _g = self.lock.write_lock();
        // SAFETY: the seqlock write side is exclusive: `_g` holds the odd
        // counter, so no other writer exists and readers will re-validate.
        f(unsafe { &mut *self.data.get() })
    }

    /// The key's Paxos structure, allocated on first use.
    #[inline]
    pub(crate) fn paxos(&self) -> &Mutex<PaxosMeta> {
        self.paxos.get_or_init(|| Box::new(Mutex::new(PaxosMeta::new())))
    }

    /// The key's Paxos structure iff one was ever allocated — lets read-only
    /// paths (anti-entropy repair) consult the slot counter without forcing
    /// an allocation on keys that never saw an RMW.
    #[inline]
    pub(crate) fn paxos_if_allocated(&self) -> Option<&Mutex<PaxosMeta>> {
        self.paxos.get().map(|b| &**b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_common::NodeId;

    #[test]
    fn snapshot_reflects_update() {
        let r = Record::new();
        r.update(|d| {
            d.lc = Lc::new(3, NodeId(1));
            d.epoch = 2;
            d.set_val(&Val::from_bytes(b"abc"));
        });
        let s = r.snapshot();
        assert_eq!(s.lc, Lc::new(3, NodeId(1)));
        assert_eq!(s.epoch, 2);
        assert_eq!(s.val().as_bytes(), b"abc");
    }

    #[test]
    fn paxos_struct_is_lazily_allocated_once() {
        let r = Record::new();
        assert!(r.paxos.get().is_none());
        let p1 = r.paxos() as *const _;
        let p2 = r.paxos() as *const _;
        assert_eq!(p1, p2);
    }

    #[test]
    #[should_panic(expected = "exceeds record capacity")]
    fn oversized_value_panics() {
        let r = Record::new();
        r.update(|d| d.set_val(&Val::from_bytes(&[0u8; MAX_VAL + 1])));
    }

    #[test]
    fn concurrent_snapshots_are_never_torn() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let r = Arc::new(Record::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (r, stop) = (r.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut i: u64 = 0;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    r.update(|d| {
                        d.lc = Lc::new(i, NodeId(0));
                        // value mirrors the clock — readers cross-check
                        d.set_val(&Val::from_u64(i));
                    });
                }
            })
        };
        for _ in 0..5_000 {
            let s = r.snapshot();
            assert_eq!(s.lc.version(), s.val().as_u64(), "clock and value must move together");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
}
