//! Sequence locks (seqlocks), as used by Kite's MICA adaptation (§6.2).
//!
//! A seqlock lets any number of readers snapshot a record without writing
//! shared state (reads are invisible — crucial when every relaxed read in
//! the ES fast path hits the local store), while writers serialize on a
//! per-record counter. Readers retry if a writer overlapped.
//!
//! The counter protocol is the classic one (cf. Linux, and Kite's own
//! `seqlock` from the ccKVS/Hermes codebase):
//!
//! * even counter — record stable; odd — a writer is inside;
//! * writer: CAS even→odd (Acquire), mutate, store even (Release);
//! * reader: load counter (Acquire), copy data, fence, re-load and compare.
//!
//! The record payload must be `Copy` (MICA-style inline values) so readers
//! can copy it out byte-wise; torn reads are detected by validation and the
//! copy is discarded, never interpreted.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// The per-record lock word.
#[derive(Debug, Default)]
pub struct SeqLock {
    seq: AtomicU64,
}

impl SeqLock {
    /// An unlocked seqlock at sequence 0.
    pub const fn new() -> Self {
        SeqLock { seq: AtomicU64::new(0) }
    }

    /// Begin an optimistic read: spins past in-flight writers and returns
    /// the (even) sequence observed. Spins yield to the OS after a bounded
    /// number of iterations so a preempted writer cannot livelock readers on
    /// oversubscribed machines.
    #[inline]
    pub fn read_begin(&self) -> u64 {
        let mut spins = 0u32;
        loop {
            // ordering: Acquire pairs with the WriteGuard's Release store —
            // an even value here means every payload write of the previous
            // writer is visible before the reader's copies start.
            let s = self.seq.load(Ordering::Acquire);
            if s & 1 == 0 {
                return s;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Validate an optimistic read begun at `begin`: `true` iff no writer
    /// overlapped the read section.
    ///
    /// ordering: the Acquire fence orders the payload reads *before* the
    /// re-load (classic seqlock validation, cf. Linux `read_seqretry`);
    /// with the fence in place the re-load itself can stay Relaxed — it
    /// only needs to observe a value, not publish anything.
    #[inline]
    pub fn read_validate(&self, begin: u64) -> bool {
        fence(Ordering::Acquire);
        self.seq.load(Ordering::Relaxed) == begin
    }

    /// Acquire the write side (spins on contention — writers hold the lock
    /// for a handful of stores only).
    #[inline]
    pub fn write_lock(&self) -> WriteGuard<'_> {
        let mut spins = 0u32;
        loop {
            // ordering: the probe load is Relaxed because the CAS below is
            // the real synchronization point; a stale probe just retries.
            let s = self.seq.load(Ordering::Relaxed);
            // ordering: Acquire on CAS success pairs with the previous
            // writer's Release so this writer sees its payload before
            // mutating; the failure ordering is Relaxed — a lost race
            // carries no data, we simply spin.
            if s & 1 == 0
                && self
                    .seq
                    .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return WriteGuard { lock: self, start: s };
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Current raw sequence (test/diagnostic use).
    // ordering: diagnostic peek; nothing is read on the strength of it.
    pub fn raw(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

/// RAII write guard: releases (bumps the counter to even) on drop.
pub struct WriteGuard<'a> {
    lock: &'a SeqLock,
    start: u64,
}

impl Drop for WriteGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        // ordering: Release publishes every payload store of the write
        // section before the counter returns to even — the other half of
        // the Acquire in read_begin/write_lock. (The odd→even transition
        // needs no Acquire: this thread did the odd CAS itself.)
        self.lock.seq.store(self.start + 2, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn sequence_advances_by_two_per_write() {
        let l = SeqLock::new();
        assert_eq!(l.raw(), 0);
        drop(l.write_lock());
        assert_eq!(l.raw(), 2);
        drop(l.write_lock());
        assert_eq!(l.raw(), 4);
    }

    #[test]
    fn reader_validates_when_no_writer() {
        let l = SeqLock::new();
        let b = l.read_begin();
        assert!(l.read_validate(b));
    }

    #[test]
    fn reader_detects_intervening_writer() {
        let l = SeqLock::new();
        let b = l.read_begin();
        drop(l.write_lock());
        assert!(!l.read_validate(b));
    }

    #[test]
    fn validated_reads_retry_to_consistency() {
        // Writer flips two correlated cells; a read that validates must
        // never have observed them unequal.
        let l = Arc::new(SeqLock::new());
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        let writer = {
            let (l, a, b, stop) = (l.clone(), a.clone(), b.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    let _g = l.write_lock();
                    a.store(i, Ordering::Relaxed);
                    std::hint::spin_loop();
                    b.store(i, Ordering::Relaxed);
                }
            })
        };

        let mut checks = 0u64;
        while checks < 2_000 {
            let begin = l.read_begin();
            let (x, y) = (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed));
            if l.read_validate(begin) {
                assert_eq!(x, y, "torn read observed");
                checks += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn writers_are_mutually_exclusive() {
        let l = Arc::new(SeqLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (l, c) = (l.clone(), counter.clone());
            handles.push(std::thread::spawn(move || {
                for _ in 0..2_500 {
                    let _g = l.write_lock();
                    // non-atomic increment under the lock
                    let v = c.load(Ordering::Relaxed);
                    c.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 10_000);
    }
}
