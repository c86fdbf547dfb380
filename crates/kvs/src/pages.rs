//! The store's slot array, on transparent huge pages when it is large.
//!
//! Every lookup lands on a random slot of an array far larger than any
//! cache, so on 4 KiB pages it misses the TLB as well as the cache: a page
//! walk before the line load. A slot array of at least [`HUGE_PAGE`] bytes
//! is therefore allocated `HUGE_PAGE`-aligned and advised `MADV_HUGEPAGE`
//! (Linux) before its first write, so the kernel backs it with 2 MiB pages
//! and one TLB entry covers 32 768 slots. Only the whole huge pages the
//! array spans are advised: its tail stays on small pages, so no array is
//! rounded up to a huge page and resident memory does not grow. A smaller
//! array is allocated exactly as a `Box<[T]>` would be. Either way the
//! allocation is freed with its own layout.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;

/// Transparent huge page size (x86-64, and arm64 with 4 KiB base pages).
pub(crate) const HUGE_PAGE: usize = 2 << 20;

/// A fixed-length, owned array of `T`, huge-page-backed from [`HUGE_PAGE`]
/// bytes up (see the module docs).
pub(crate) struct SlotArray<T> {
    ptr: NonNull<T>,
    len: usize,
    layout: Layout,
}

// SAFETY: a `SlotArray<T>` owns its elements exactly as a `Box<[T]>` does
// (no sharing, no interior pointer handed out beyond `&self`/`&mut self`
// borrows), so it may cross and be shared between threads whenever `T` may.
unsafe impl<T: Send> Send for SlotArray<T> {}
// SAFETY: as above — `&SlotArray<T>` only ever yields `&T`.
unsafe impl<T: Sync> Sync for SlotArray<T> {}

impl<T> SlotArray<T> {
    /// `len` elements, each `init()`, written in order after the memory is
    /// advised.
    pub(crate) fn new(len: usize, mut init: impl FnMut() -> T) -> Self {
        let array = Layout::array::<T>(len).expect("slot array size overflows");
        assert!(array.size() > 0, "an empty slot array");
        let huge = array.size() >= HUGE_PAGE;
        let layout = if huge {
            array.align_to(HUGE_PAGE).expect("huge-page alignment")
        } else {
            array
        };
        // SAFETY: `layout` has a non-zero size (asserted above).
        let raw = unsafe { alloc(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else { handle_alloc_error(layout) };
        if huge {
            advise_huge_pages(raw, array.size() / HUGE_PAGE * HUGE_PAGE);
        }
        for i in 0..len {
            // SAFETY: the allocation holds `len` elements of `T` and `i <
            // len`; each element is written exactly once, before any read.
            unsafe { ptr.as_ptr().add(i).write(init()) };
        }
        SlotArray { ptr, len, layout }
    }
}

impl<T> std::ops::Deref for SlotArray<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` is the start of one live allocation holding `len`
        // initialised elements (see `new`), borrowed for as long as `self`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Drop for SlotArray<T> {
    fn drop(&mut self) {
        // SAFETY: the `len` elements at `ptr` are initialised and dropped
        // once, here; the memory was allocated with `self.layout` and is
        // freed once, after them.
        unsafe {
            std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len));
            dealloc(self.ptr.as_ptr().cast(), self.layout);
        }
    }
}

/// Ask the kernel to back `[addr, addr + len)` with transparent huge
/// pages. A hint: a kernel without THP, or with it off, refuses, and the
/// pages stay as they are — so the result is ignored.
#[cfg(target_os = "linux")]
fn advise_huge_pages(addr: *mut u8, len: usize) {
    extern "C" {
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }
    const MADV_HUGEPAGE: i32 = 14;
    // SAFETY: the range is `HUGE_PAGE`-aligned (hence page-aligned) and lies
    // inside one live allocation this process owns; `MADV_HUGEPAGE` changes
    // how the kernel backs the range, never its contents or its mapping.
    unsafe { madvise(addr, len, MADV_HUGEPAGE) };
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_addr: *mut u8, _len: usize) {}
