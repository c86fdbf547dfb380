//! Where a store's slots live: a slot array of 2 MiB or more is allocated
//! 2 MiB-aligned (for transparent huge pages) at exactly its own size, a
//! smaller one exactly as before — `capacity × 64` bytes on a cache line —
//! and dropping either frees all of it. A counting global allocator
//! records every allocation and free the constructing thread makes.
//!
//! The armed flag is thread-local (as in `crates/lint/tests/alloc_guard.rs`):
//! the libtest harness allocates on its own threads in this process, and
//! only the test's own thread is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};

use kite_common::{Key, Lc, NodeId, Val};
use kite_kvs::Store;

/// Records `(address, size, align)` of each allocation while [`ARMED`], and
/// nets out the bytes freed; allocation itself is delegated to [`System`].
struct CountingAlloc;

thread_local! {
    /// `const`-initialized: no destructor, so reading it from inside the
    /// allocator never recurses into allocation.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Bytes allocated minus bytes freed while armed.
    static NET: Cell<i64> = const { Cell::new(0) };
    /// The allocations made while armed (pushed with the flag lowered).
    static SEEN: RefCell<Vec<(usize, usize, usize)>> = const { RefCell::new(Vec::new()) };
}

fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every method delegates directly to `System`, which upholds the
// GlobalAlloc contract; the additions are bookkeeping with no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout contract as `System::alloc` (delegated verbatim).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if armed() {
            ARMED.set(false);
            NET.set(NET.get() + layout.size() as i64);
            SEEN.with_borrow_mut(|seen| seen.push((p as usize, layout.size(), layout.align())));
            ARMED.set(true);
        }
        p
    }

    // SAFETY: same pointer/layout contract as `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if armed() {
            NET.set(NET.get() - layout.size() as i64);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const HUGE_PAGE: usize = 2 << 20;

/// `f()`, with the allocations it makes and its net bytes.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Vec<(usize, usize, usize)>, i64) {
    SEEN.with_borrow_mut(Vec::clear);
    NET.set(0);
    ARMED.set(true);
    let out = f();
    ARMED.set(false);
    (out, SEEN.with_borrow_mut(std::mem::take), NET.get())
}

/// The one allocation of `capacity × 64` bytes among `seen`: the slots.
fn slot_array(store: &Store, seen: &[(usize, usize, usize)]) -> (usize, usize, usize) {
    let bytes = store.capacity() * 64;
    let slots: Vec<_> = seen.iter().filter(|a| a.1 == bytes).collect();
    assert_eq!(slots.len(), 1, "one allocation of the slots' {bytes} bytes in {seen:?}");
    assert!(seen.iter().all(|a| a.1 <= bytes), "nothing larger than the slots in {seen:?}");
    *slots[0]
}

#[test]
fn a_huge_page_store_starts_empty_on_aligned_slots() {
    let (s, seen, _) = counted(|| Store::new(100_000));
    assert!(s.capacity() * 64 >= HUGE_PAGE);
    let (addr, _, align) = slot_array(&s, &seen);
    assert_eq!((align, addr % HUGE_PAGE), (HUGE_PAGE, 0), "huge-page aligned, so line-aligned");
    assert_eq!((s.len(), s.values()), (0, 0));
    let mut live = Vec::new();
    assert_eq!(s.digest_range(0, s.capacity(), &mut live), 0, "one pass wraps");
    assert!(live.is_empty(), "every slot starts empty");
    let mut entries = 0;
    s.for_each_entry(|_, _, _| entries += 1);
    assert_eq!(entries, 0);
    assert!((0..1_000).all(|k| s.probe_lc(Key(k)).is_none()));
    // Every slot is claimable: fill the store to its sizing.
    for k in 0..100_000 {
        s.apply_max(Key(k), &Val::from_u64(k), Lc::new(1, NodeId(1)));
    }
    assert_eq!((s.len(), s.values()), (100_000, 100_000));
}

#[test]
fn a_store_under_two_mib_allocates_exactly_its_slots() {
    let (s, seen, _) = counted(|| Store::new(1_000));
    assert!(s.capacity() * 64 < HUGE_PAGE);
    let (addr, bytes, align) = slot_array(&s, &seen);
    assert_eq!((bytes, align, addr % 64), (s.capacity() * 64, 64, 0));
}

#[test]
fn dropping_a_store_frees_what_it_allocated() {
    for keys in [1_000, 100_000] {
        let ((), seen, net) = counted(|| {
            let s = Store::new(keys);
            s.apply_max(Key(7), &Val::from_u64(7), Lc::new(1, NodeId(1)));
            drop(s);
        });
        assert!(!seen.is_empty());
        assert_eq!(net, 0, "{keys} keys: {seen:?} not all freed");
    }
}
