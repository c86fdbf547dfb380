//! Compact value representation.
//!
//! The paper's evaluation stores 32-byte values (§7). Values at or below
//! [`Val::INLINE_CAP`] bytes live inline in the `Val` itself — no heap
//! allocation on the hot path of reads, writes, or message construction.
//! Larger values (used by the lock-free data structures for multi-field
//! objects) spill to a boxed slice.
//!
//! # Layout
//!
//! A `Val` is exactly 33 bytes with alignment 1: a tag byte (`0..=32` =
//! inline length, `0xFF` = heap) followed by a 32-byte buffer. The heap
//! flavour stores the boxed slice's raw parts *unaligned* inside the buffer
//! (pointer in bytes `0..8`, length in bytes `8..16`). Keeping the
//! alignment at 1 is deliberate: it is what lets the value-carrying wire
//! messages (`Msg::EsWrite`, `Msg::WriteMsg`, `Msg::ReadRep`) pack a value
//! next to three `u64`-sized fields and still fit one cache line — an
//! aligned enum with a `Box` variant would round up to 40 bytes and blow
//! the budget (see `kite::msg`).

/// Maximum number of bytes stored inline.
const INLINE_CAP: usize = 32;

/// Tag value marking the heap representation.
const HEAP_TAG: u8 = 0xFF;

/// A value of the store: inline up to 32 bytes, heap-allocated beyond.
pub struct Val {
    /// `0..=32`: inline length. [`HEAP_TAG`]: `data` holds the raw parts of
    /// a leaked `Box<[u8]>` (pointer bytes `0..8`, length bytes `8..16`).
    tag: u8,
    data: [u8; INLINE_CAP],
}

// Compile-time guarantees the wire format depends on (see module docs).
const _: () = assert!(std::mem::size_of::<Val>() == 33 && std::mem::align_of::<Val>() == 1);
// The heap flavour stores a pointer and a length in 8-byte slots of `data`;
// a non-64-bit target would corrupt them at runtime, so refuse to build.
const _: () = assert!(std::mem::size_of::<usize>() == 8);

impl Val {
    /// Capacity of the inline representation (32 bytes, matching the paper's
    /// value size).
    pub const INLINE_CAP: usize = INLINE_CAP;

    /// The empty value — what a read of a never-written key returns.
    pub const EMPTY: Val = Val { tag: 0, data: [0u8; INLINE_CAP] };

    /// Build a value from raw bytes, choosing the representation by size.
    #[inline]
    pub fn from_bytes(bytes: &[u8]) -> Val {
        if bytes.len() <= INLINE_CAP {
            let mut data = [0u8; INLINE_CAP];
            data[..bytes.len()].copy_from_slice(bytes);
            Val { tag: bytes.len() as u8, data }
        } else {
            let boxed: Box<[u8]> = bytes.into();
            Val::from_boxed(boxed)
        }
    }

    /// Take ownership of an already-boxed slice (always the heap flavour,
    /// even for short slices — `from_bytes` is the normal entry point).
    fn from_boxed(boxed: Box<[u8]>) -> Val {
        let len = boxed.len();
        let ptr = Box::into_raw(boxed) as *mut u8 as usize;
        let mut data = [0u8; INLINE_CAP];
        data[..8].copy_from_slice(&ptr.to_ne_bytes());
        data[8..16].copy_from_slice(&len.to_ne_bytes());
        Val { tag: HEAP_TAG, data }
    }

    /// Raw parts of the heap representation. Caller must have checked the
    /// tag.
    #[inline]
    fn heap_parts(&self) -> (*mut u8, usize) {
        debug_assert_eq!(self.tag, HEAP_TAG);
        let ptr = usize::from_ne_bytes(self.data[..8].try_into().unwrap());
        let len = usize::from_ne_bytes(self.data[8..16].try_into().unwrap());
        (ptr as *mut u8, len)
    }

    /// Encode a `u64` (little-endian); the RMW engine uses this for
    /// fetch-and-add counters.
    #[inline]
    pub fn from_u64(v: u64) -> Val {
        Val::from_bytes(&v.to_le_bytes())
    }

    /// Decode a `u64` from the first 8 bytes (zero-padded if shorter).
    #[inline]
    pub fn as_u64(&self) -> u64 {
        let b = self.as_bytes();
        let mut buf = [0u8; 8];
        let n = b.len().min(8);
        buf[..n].copy_from_slice(&b[..n]);
        u64::from_le_bytes(buf)
    }

    #[inline]
    /// The value's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        if self.tag == HEAP_TAG {
            let (ptr, len) = self.heap_parts();
            // SAFETY: `(ptr, len)` are the raw parts of a live `Box<[u8]>`
            // exclusively owned by this Val (freed only by `drop`).
            unsafe { std::slice::from_raw_parts(ptr, len) }
        } else {
            &self.data[..self.tag as usize]
        }
    }

    #[inline]
    /// Length in bytes.
    pub fn len(&self) -> usize {
        if self.tag == HEAP_TAG {
            self.heap_parts().1
        } else {
            self.tag as usize
        }
    }

    #[inline]
    /// Whether the value is the empty (never-written) value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` iff the value is stored inline (no heap allocation).
    #[inline]
    pub fn is_inline(&self) -> bool {
        self.tag != HEAP_TAG
    }
}

impl Drop for Val {
    #[inline]
    fn drop(&mut self) {
        if self.tag == HEAP_TAG {
            let (ptr, len) = self.heap_parts();
            // SAFETY: reconstructing the Box we leaked in `from_boxed`;
            // the tag guarantees it has not been freed (drop runs once and
            // clone allocates a fresh box).
            unsafe { drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len))) };
        }
    }
}

impl Clone for Val {
    #[inline]
    fn clone(&self) -> Self {
        if self.tag == HEAP_TAG {
            Val::from_boxed(self.as_bytes().into())
        } else {
            Val { tag: self.tag, data: self.data }
        }
    }
}

impl Default for Val {
    #[inline]
    fn default() -> Self {
        Val::EMPTY
    }
}

impl PartialEq for Val {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Val {}

impl std::hash::Hash for Val {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl std::fmt::Debug for Val {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.as_bytes();
        if b.len() <= 8 {
            write!(f, "Val({b:02x?})")
        } else {
            write!(f, "Val(len={}, {:02x?}…)", b.len(), &b[..8])
        }
    }
}

impl From<&[u8]> for Val {
    #[inline]
    fn from(b: &[u8]) -> Self {
        Val::from_bytes(b)
    }
}

impl From<u64> for Val {
    #[inline]
    fn from(v: u64) -> Self {
        Val::from_u64(v)
    }
}

impl<const N: usize> From<&[u8; N]> for Val {
    #[inline]
    fn from(b: &[u8; N]) -> Self {
        Val::from_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_inline() {
        let v = Val::from_bytes(b"hello");
        assert!(v.is_inline());
        assert_eq!(v.as_bytes(), b"hello");
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn boundary_32_bytes_is_inline() {
        let v = Val::from_bytes(&[7u8; 32]);
        assert!(v.is_inline());
        assert_eq!(v.len(), 32);
    }

    #[test]
    fn boundary_33_bytes_spills_to_heap() {
        let v = Val::from_bytes(&[7u8; 33]);
        assert!(!v.is_inline());
        assert_eq!(v.len(), 33);
        assert_eq!(v.as_bytes(), &[7u8; 33][..]);
    }

    #[test]
    fn layout_is_33_bytes_align_1() {
        assert_eq!(std::mem::size_of::<Val>(), 33);
        assert_eq!(std::mem::align_of::<Val>(), 1);
    }

    #[test]
    fn heap_values_clone_and_drop_independently() {
        let a = Val::from_bytes(&[9u8; 100]);
        let b = a.clone();
        drop(a);
        assert_eq!(b.as_bytes(), &[9u8; 100][..]);
        assert_eq!(b.len(), 100);
    }

    #[test]
    fn equality_crosses_representations() {
        // A heap value and an inline value with the same bytes are equal;
        // equality is over contents, not representation.
        let inline = Val::from_bytes(&[1u8; 16]);
        let heap = Val::from_boxed(vec![1u8; 16].into_boxed_slice());
        assert!(!heap.is_inline());
        assert_eq!(inline, heap);
    }

    #[test]
    fn u64_round_trip() {
        for v in [0u64, 1, 41, u64::MAX, 1 << 40] {
            assert_eq!(Val::from_u64(v).as_u64(), v);
        }
    }

    #[test]
    fn as_u64_of_short_value_zero_pads() {
        assert_eq!(Val::from_bytes(&[1]).as_u64(), 1);
        assert_eq!(Val::EMPTY.as_u64(), 0);
    }

    #[test]
    fn empty_default() {
        assert!(Val::default().is_empty());
        assert_eq!(Val::default(), Val::EMPTY);
    }

    #[test]
    fn debug_is_truncated_for_large_values() {
        let d = format!("{:?}", Val::from_bytes(&[0xAB; 100]));
        assert!(d.contains("len=100"));
    }

    #[test]
    fn heap_values_cross_threads() {
        let v = Val::from_bytes(&[3u8; 64]);
        let h = std::thread::spawn(move || v.len());
        assert_eq!(h.join().unwrap(), 64);
    }
}
