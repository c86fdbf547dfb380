//! A single key's record: one seqlock-protected cache line holding the
//! clock, a packed word (epoch, extension index, value length) and the
//! first `HEAD` value bytes, plus a lazily allocated **extension** for
//! what does not fit — value bytes past `HEAD` and the key's Paxos
//! structure (§6.2).
//!
//! Every benchmark value is at most `HEAD` bytes (the paper's 32-byte
//! values, and `Val`'s own inline cap), so a typical key never owns an
//! extension: its whole state is the line its lookup already loaded.
//! Extensions come from a per-store [`ExtArena`] that grows in chunks, on
//! a key's first value longer than `HEAD` or its first RMW, and are never
//! freed or moved: a key's extension index is written once, under its
//! seqlock, and stays valid for the store's life.
//!
//! The tail bytes live in the extension but are still covered by the key's
//! seqlock: a writer stores them inside its write section, and a reader
//! copies them inside the same read section as the line, so one validation
//! covers head and tail together.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Value bytes stored in the record's own line; the rest go to the key's
/// extension. Equal to `Val`'s inline cap, so a value the store holds
/// without an extension is also one `Val` holds without a heap box.
pub(crate) const HEAD: usize = Val::INLINE_CAP;

const TAIL: usize = MAX_VAL - HEAD;

/// Bits of the packed word holding the value length (`0..=MAX_VAL`).
const LEN_BITS: u32 = 8;
/// Bits of the packed word holding the extension index (0 = none).
const EXT_BITS: u32 = 24;
const EXT_MASK: u64 = (1 << EXT_BITS) - 1;
/// Most extensions an arena hands out: one per slot, indices `1..=MAX_EXTS`.
pub(crate) const MAX_EXTS: usize = EXT_MASK as usize;
const EPOCH_SHIFT: u32 = LEN_BITS + EXT_BITS;
/// Largest per-key epoch the packed word holds. The machine epoch grows by
/// one per bump, so this is 4 billion failure-detector bumps on one node.
const MAX_EPOCH: u64 = u64::MAX >> EPOCH_SHIFT;

const _: () = assert!(MAX_VAL < 1 << LEN_BITS);

/// The seqlock-protected part of a record's line. `Copy` on purpose:
/// readers copy it out and validate afterwards.
#[derive(Clone, Copy)]
pub(crate) struct RecordData {
    /// Per-key Lamport clock: the write-serialization point for ES and ABD.
    pub lc: Lc,
    /// `epoch << 32 | ext << 8 | len`: the per-key epoch-id (§4.2; the key
    /// is in-epoch iff it equals the machine epoch-id), the key's
    /// extension index in its store's [`ExtArena`] (0 = none) and the
    /// value length.
    meta: u64,
    /// The first [`HEAD`] value bytes.
    head: [u8; HEAD],
}

impl RecordData {
    const fn empty() -> Self {
        RecordData { lc: Lc::ZERO, meta: 0, head: [0; HEAD] }
    }

    /// The per-key epoch.
    #[inline]
    pub(crate) fn epoch(&self) -> u64 {
        self.meta >> EPOCH_SHIFT
    }

    #[inline]
    fn len(&self) -> usize {
        (self.meta & 0xFF) as usize
    }

    #[inline]
    fn ext(&self) -> usize {
        ((self.meta >> LEN_BITS) & EXT_MASK) as usize
    }
}

/// A consistent copy of a record: its line, and the tail bytes when the
/// value is longer than [`HEAD`].
pub(crate) struct Snapshot {
    pub data: RecordData,
    tail: [u8; TAIL],
}

impl Snapshot {
    #[inline]
    pub(crate) fn val(&self) -> Val {
        let len = self.data.len();
        if len <= HEAD {
            return Val::from_bytes(&self.data.head[..len]);
        }
        let mut buf = [0u8; MAX_VAL];
        buf[..HEAD].copy_from_slice(&self.data.head);
        buf[HEAD..].copy_from_slice(&self.tail);
        Val::from_bytes(&buf[..len])
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

/// One key's storage outside its line: value bytes past [`HEAD`] and the
/// Paxos structure.
pub(crate) struct Ext {
    /// Value bytes `HEAD..len`, written and read under the owning key's
    /// seqlock (the line's length says how many are live).
    tail: UnsafeCell<[u8; TAIL]>,
    /// Initialized on the key's first RMW (§6.2: "each key contains a
    /// pointer to its own Paxos-structure"). We guard it with a `Mutex`
    /// rather than re-entering the seqlock because the Paxos state is not
    /// `Copy`; the paper's trick of sharing the seqlock is an optimization,
    /// not a correctness requirement.
    pub paxos: OnceLock<Mutex<PaxosMeta>>,
}

// SAFETY: `tail` is only written inside the owning key's seqlock write
// section and only read by seqlock readers that validate the copy before
// using it; `paxos` is internally synchronized.
unsafe impl Sync for Ext {}
// SAFETY: no thread-affine state — the byte array and the OnceLock'd
// Mutex move between threads freely.
unsafe impl Send for Ext {}

impl Ext {
    fn new() -> Self {
        Ext { tail: UnsafeCell::new([0; TAIL]), paxos: OnceLock::new() }
    }

    /// The key's Paxos structure, initialized on first use.
    #[inline]
    pub(crate) fn paxos(&self) -> &Mutex<PaxosMeta> {
        self.paxos.get_or_init(|| Mutex::new(PaxosMeta::new()))
    }
}

/// Extensions per arena chunk: the unit the arena grows by. A power of
/// two, so an index splits into chunk and offset with a shift and a mask.
const EXT_CHUNK: usize = 256;
const CHUNK_SHIFT: u32 = EXT_CHUNK.trailing_zeros();
const _: () = assert!(EXT_CHUNK.is_power_of_two());

/// A store's extensions: a directory of fixed-size chunks, each allocated
/// on the first index that falls in it. Indices are 1-based (0 in a
/// record's packed word means "no extension") and an extension never moves
/// once handed out, so a record holds it by index for the store's life.
pub(crate) struct ExtArena {
    chunks: Box<[OnceLock<Box<[Ext]>>]>,
    used: AtomicUsize,
}

impl ExtArena {
    /// An arena able to hand one extension to each of `slots` keys.
    /// Allocates only the chunk directory.
    pub(crate) fn new(slots: usize) -> Self {
        assert!(slots <= MAX_EXTS, "{slots} slots exceed the {EXT_BITS}-bit extension index");
        ExtArena {
            chunks: (0..slots.div_ceil(EXT_CHUNK)).map(|_| OnceLock::new()).collect(),
            used: AtomicUsize::new(0),
        }
    }

    /// Extensions handed out.
    // ordering: a monotone gauge; nothing is read on the strength of it.
    pub(crate) fn len(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Hand out a fresh extension's index. Called under the key's seqlock
    /// write lock, so one key never takes two.
    // ordering: the counter only has to hand out distinct indices; the
    // chunk's OnceLock publishes the extensions, and the key's seqlock
    // Release publishes the index to the key's readers.
    fn alloc(&self) -> usize {
        let i = self.used.fetch_add(1, Ordering::Relaxed);
        let chunk = self.chunks.get(i >> CHUNK_SHIFT).expect("one extension per slot");
        chunk.get_or_init(|| (0..EXT_CHUNK).map(|_| Ext::new()).collect());
        i + 1
    }

    /// The extension at `idx`, or `None` when `idx` names none — which a
    /// validated read never sees, only a torn one.
    #[inline]
    fn get(&self, idx: usize) -> Option<&Ext> {
        let i = idx.checked_sub(1)?;
        let chunk = self.chunks.get(i >> CHUNK_SHIFT)?.get()?;
        chunk.get(i & (EXT_CHUNK - 1))
    }
}

/// One key's line minus its key word: seqlock + inline data.
pub(crate) struct Record {
    pub lock: SeqLock,
    data: UnsafeCell<RecordData>,
}

// SAFETY: all access to `data` goes through the record's seqlock protocol
// (see `Store`).
unsafe impl Sync for Record {}
// SAFETY: same argument as Sync — no thread-affine state; ownership moves
// only the atomic and the UnsafeCell payload.
unsafe impl Send for Record {}

/// Spin, then yield: a failed read validation waits out the writer.
#[inline]
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 16 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

impl Record {
    pub(crate) const fn new() -> Self {
        Record { lock: SeqLock::new(), data: UnsafeCell::new(RecordData::empty()) }
    }

    /// Optimistically copy the record's line (clock, epoch, length and
    /// head bytes — no tail).
    #[inline]
    pub(crate) fn line(&self) -> RecordData {
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
            backoff(&mut spins);
        }
    }

    /// Optimistically snapshot the whole record: the line, and the tail
    /// from the key's extension when the value is longer than [`HEAD`] —
    /// both inside one read section.
    #[inline]
    pub(crate) fn snapshot(&self, exts: &ExtArena) -> Snapshot {
        let mut spins = 0u32;
        loop {
            let begin = self.lock.read_begin();
            // SAFETY: as in `line`.
            let data = unsafe { std::ptr::read_volatile(self.data.get()) };
            let mut tail = [0u8; TAIL];
            if data.len() > HEAD {
                // A torn copy may name no extension: retry like any tear.
                if let Some(ext) = exts.get(data.ext()) {
                    // SAFETY: the extension is live for the arena's life;
                    // a racing tail write is detected by the validation
                    // below and the copy is discarded uninterpreted.
                    tail = unsafe { std::ptr::read_volatile(ext.tail.get()) };
                } else {
                    backoff(&mut spins);
                    continue;
                }
            }
            if self.lock.read_validate(begin) {
                return Snapshot { data, tail };
            }
            backoff(&mut spins);
        }
    }

    /// Run `f` on the record under the write lock.
    #[inline]
    pub(crate) fn update<'a, R>(
        &self,
        exts: &'a ExtArena,
        f: impl for<'d> FnOnce(&mut RecordMut<'d, 'a>) -> R,
    ) -> R {
        let _g = self.lock.write_lock();
        // SAFETY: the seqlock write side is exclusive: `_g` holds the odd
        // counter, so no other writer exists and readers will re-validate.
        let data = unsafe { &mut *self.data.get() };
        f(&mut RecordMut { data, exts })
    }

    /// The key's extension iff it has one — lets read-only paths
    /// (anti-entropy repair) consult the Paxos slot without allocating.
    #[inline]
    pub(crate) fn ext_if_allocated<'a>(&self, exts: &'a ExtArena) -> Option<&'a Ext> {
        exts.get(self.line().ext())
    }

    /// The key's extension, allocated (under the write lock) on first use.
    #[inline]
    pub(crate) fn ext<'a>(&self, exts: &'a ExtArena) -> &'a Ext {
        match self.ext_if_allocated(exts) {
            Some(ext) => ext,
            None => self.update(exts, |d| d.ext()),
        }
    }
}

/// A record's line under its write lock. Derefs to the line (the clock is
/// its one public field); the epoch and the value go through setters that
/// keep the packed word and the extension consistent.
pub(crate) struct RecordMut<'d, 'a> {
    data: &'d mut RecordData,
    exts: &'a ExtArena,
}

impl std::ops::Deref for RecordMut<'_, '_> {
    type Target = RecordData;
    fn deref(&self) -> &RecordData {
        self.data
    }
}

impl std::ops::DerefMut for RecordMut<'_, '_> {
    fn deref_mut(&mut self) -> &mut RecordData {
        self.data
    }
}

impl<'a> RecordMut<'_, 'a> {
    /// Set the per-key epoch.
    #[inline]
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        assert!(epoch <= MAX_EPOCH, "epoch {epoch} exceeds the record's {}-bit field", 64 - EPOCH_SHIFT);
        self.data.meta = (self.data.meta & !(u64::MAX << EPOCH_SHIFT)) | epoch << EPOCH_SHIFT;
    }

    /// The key's extension, handed out by the arena on first use.
    fn ext(&mut self) -> &'a Ext {
        let mut idx = self.data.ext();
        if idx == 0 {
            idx = self.exts.alloc();
            self.data.meta |= (idx as u64) << LEN_BITS;
        }
        self.exts.get(idx).expect("an index the arena handed out")
    }

    /// Store `val`: the head in the line, the rest in the extension.
    #[inline]
    pub(crate) fn set_val(&mut self, val: &Val) {
        let b = val.as_bytes();
        assert!(b.len() <= MAX_VAL, "value of {} bytes exceeds record capacity {}", b.len(), MAX_VAL);
        let (head, tail) = b.split_at(b.len().min(HEAD));
        self.data.head[..head.len()].copy_from_slice(head);
        if !tail.is_empty() {
            let ext = self.ext();
            // SAFETY: this runs under the key's seqlock write lock and the
            // extension belongs to this key alone, so no other writer
            // exists; readers copy the tail inside a read section that this
            // write section invalidates.
            unsafe { (&mut *ext.tail.get())[..tail.len()].copy_from_slice(tail) };
        }
        self.data.meta = (self.data.meta & !0xFF) | b.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_common::NodeId;

    #[test]
    fn snapshot_reflects_update() {
        let (r, exts) = (Record::new(), ExtArena::new(64));
        r.update(&exts, |d| {
            d.lc = Lc::new(3, NodeId(1));
            d.set_epoch(2);
            d.set_val(&Val::from_bytes(b"abc"));
        });
        let s = r.snapshot(&exts);
        assert_eq!(s.data.lc, Lc::new(3, NodeId(1)));
        assert_eq!(s.data.epoch(), 2);
        assert_eq!(s.val().as_bytes(), b"abc");
        assert_eq!(exts.len(), 0, "a short value takes no extension");
        let long: Vec<u8> = (0..MAX_VAL as u8).collect();
        r.update(&exts, |d| d.set_val(&Val::from_bytes(&long)));
        let s = r.snapshot(&exts);
        assert_eq!((s.val().as_bytes(), s.data.epoch()), (&long[..], 2), "the epoch survives");
        assert_eq!(exts.len(), 1);
    }

    #[test]
    fn paxos_struct_is_lazily_allocated_once() {
        let (r, exts) = (Record::new(), ExtArena::new(64));
        assert!(r.ext_if_allocated(&exts).is_none());
        let e1 = r.ext(&exts) as *const Ext;
        let e2 = r.ext(&exts) as *const Ext;
        assert_eq!(e1, e2);
        assert_eq!(exts.len(), 1);
        let ext = r.ext_if_allocated(&exts).expect("allocated");
        assert!(ext.paxos.get().is_none(), "an extension starts without a Paxos structure");
        let p1 = ext.paxos() as *const _;
        let p2 = r.ext(&exts).paxos() as *const _;
        assert_eq!(p1, p2);
    }

    #[test]
    #[should_panic(expected = "exceeds record capacity")]
    fn oversized_value_panics() {
        let (r, exts) = (Record::new(), ExtArena::new(64));
        r.update(&exts, |d| d.set_val(&Val::from_bytes(&[0u8; MAX_VAL + 1])));
    }

    #[test]
    #[should_panic(expected = "exceeds the record's 32-bit field")]
    fn epoch_beyond_the_packed_field_panics() {
        let (r, exts) = (Record::new(), ExtArena::new(64));
        r.update(&exts, |d| d.set_epoch(MAX_EPOCH));
        assert_eq!(r.line().epoch(), MAX_EPOCH, "the widest epoch fits");
        r.update(&exts, |d| d.set_epoch(MAX_EPOCH + 1));
    }

    #[test]
    fn concurrent_snapshots_are_never_torn() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Barrier};
        let shared = Arc::new((Record::new(), ExtArena::new(64)));
        let stop = Arc::new(AtomicBool::new(false));
        let start = Arc::new(Barrier::new(2));
        let writer = {
            let (shared, stop, start) = (shared.clone(), stop.clone(), start.clone());
            std::thread::spawn(move || {
                let (r, exts) = &*shared;
                start.wait();
                let mut i: u64 = 0;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    r.update(exts, |d| {
                        d.lc = Lc::new(i, NodeId(0));
                        // Odd clocks write a full-length value whose every
                        // byte is the clock's low byte (head and tail both
                        // carry it); even clocks an 8-byte value mirroring
                        // the clock. Readers cross-check both.
                        if i % 2 == 1 {
                            d.set_val(&Val::from_bytes(&[i as u8; MAX_VAL]));
                        } else {
                            d.set_val(&Val::from_u64(i));
                        }
                    });
                    // A write lock held back to back would starve the
                    // reader: leave it windows to complete reads in.
                    for _ in 0..64 {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        let (r, exts) = &*shared;
        start.wait();
        let mut long = 0;
        while long < 5_000 {
            let s = r.snapshot(exts);
            let (i, val) = (s.data.lc.version(), s.val());
            match val.as_bytes().len() {
                0 => assert_eq!(i, 0),
                MAX_VAL => {
                    long += 1;
                    assert!(
                        val.as_bytes().iter().all(|&b| b == i as u8),
                        "head and tail from different writes at clock {i}"
                    );
                }
                8 => assert_eq!(i, val.as_u64(), "clock and value must move together"),
                n => panic!("a {n}-byte value was never written"),
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
}
