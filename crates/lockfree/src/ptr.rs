//! ABA-counted pointers and node allocation for the data structures.
//!
//! A "pointer" in the KVS-resident data structures is a key id. Pointer
//! cells (stack top, queue head/tail, list `next` fields) store an encoded
//! `Ptr`: the target key, an ABA counter (bumped every time a node is
//! re-published, §8.3), and a mark bit (Harris-Michael logical deletion).

use kite_common::{Key, Val};

/// Encoded pointer value: `(key, aba, mark)`. The null pointer is key 0 —
/// node arenas never allocate key 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ptr {
    /// Key of the node's header cell.
    pub key: u64,
    /// ABA counter (§8.3: the port keeps the original algorithms'
    /// counted pointers).
    pub aba: u32,
    /// Harris deletion mark (lists).
    pub mark: bool,
}

impl Ptr {
    /// The null pointer (key 0 is reserved).
    pub const NULL: Ptr = Ptr { key: 0, aba: 0, mark: false };

    /// A pointer to `key` with the given ABA count, unmarked.
    pub fn new(key: Key, aba: u32) -> Ptr {
        Ptr { key: key.0, aba, mark: false }
    }

    /// Whether this is the null pointer.
    pub fn is_null(self) -> bool {
        self.key == 0
    }

    /// The same pointer with the mark bit set (logical deletion).
    pub fn marked(self) -> Ptr {
        Ptr { mark: true, ..self }
    }

    /// The same pointer with the mark bit cleared.
    pub fn unmarked(self) -> Ptr {
        Ptr { mark: false, ..self }
    }

    /// Encode into a store value (13 bytes, inline). The canonical NULL
    /// encodes as the *empty* value so it compares equal to a never-written
    /// pointer cell — CAS expectations on fresh cells depend on this.
    pub fn encode(self) -> Val {
        if self == Ptr::NULL {
            return Val::EMPTY;
        }
        let mut b = [0u8; 13];
        b[..8].copy_from_slice(&self.key.to_le_bytes());
        b[8..12].copy_from_slice(&self.aba.to_le_bytes());
        b[12] = self.mark as u8;
        Val::from_bytes(&b)
    }

    /// Decode from a store value. An empty/short value decodes to NULL
    /// (fresh, never-written pointer cells read as the empty value).
    pub fn decode(v: &Val) -> Ptr {
        let b = v.as_bytes();
        if b.len() < 13 {
            return Ptr::NULL;
        }
        Ptr {
            key: u64::from_le_bytes(b[..8].try_into().unwrap()),
            aba: u32::from_le_bytes(b[8..12].try_into().unwrap()),
            mark: b[12] != 0,
        }
    }
}

/// Per-client node allocator over a key range, with a free list.
///
/// Every node occupies `1 + fields` consecutive keys: the node header (its
/// `next` pointer cell) followed by its payload field keys. Reused nodes get
/// a bumped ABA epoch, so re-published pointers never compare equal to
/// stale ones.
pub struct NodeArena {
    base: u64,
    stride: u64,
    capacity: u64,
    next_fresh: u64,
    free: Vec<u64>,
    /// ABA epoch per slot index (parallel to allocation order).
    aba: Vec<u32>,
    /// Payload fields per node (layout stride).
    pub fields: usize,
}

impl NodeArena {
    /// An arena of `capacity` nodes of `fields` payload fields each, laid
    /// out from `base` (must be ≥ 1: key 0 is the null pointer).
    pub fn new(base: u64, capacity: u64, fields: usize) -> NodeArena {
        assert!(base >= 1, "key 0 is reserved for NULL");
        NodeArena {
            base,
            stride: 1 + fields as u64,
            capacity,
            next_fresh: 0,
            free: Vec::new(),
            aba: vec![0; capacity as usize],
            fields,
        }
    }

    /// Keys consumed by this arena: `[base, base + capacity * stride)`.
    pub fn key_span(&self) -> std::ops::Range<u64> {
        self.base..self.base + self.capacity * self.stride
    }

    /// Allocate a node; returns its pointer (with a fresh ABA epoch).
    /// Panics if the arena is exhausted (size the experiment accordingly).
    pub fn alloc(&mut self) -> Ptr {
        let slot = if let Some(s) = self.free.pop() {
            self.aba[s as usize] = self.aba[s as usize].wrapping_add(1);
            s
        } else {
            let s = self.next_fresh;
            assert!(s < self.capacity, "node arena exhausted ({} nodes)", self.capacity);
            self.next_fresh += 1;
            s
        };
        Ptr { key: self.base + slot * self.stride, aba: self.aba[slot as usize], mark: false }
    }

    /// Does this arena own the node at `p`? Pops can reclaim nodes pushed
    /// by *other* clients; those are conservatively leaked (cross-client
    /// reclamation would need hazard pointers — out of scope, arenas are
    /// sized with slack instead).
    pub fn owns(&self, p: Ptr) -> bool {
        !p.is_null()
            && self.key_span().contains(&p.key)
            && (p.key - self.base).is_multiple_of(self.stride)
    }

    /// Return a node to the free list. Only the client that popped/removed
    /// the node may free it (single-owner reclamation, as in the paper's
    /// per-session benchmark loop).
    pub fn free(&mut self, p: Ptr) {
        debug_assert!(!p.is_null());
        let slot = (p.key - self.base) / self.stride;
        debug_assert!(slot < self.capacity);
        self.free.push(slot);
    }

    /// Key of payload field `i` of the node at `p`.
    pub fn field_key(p: Ptr, i: usize) -> Key {
        Key(p.key + 1 + i as u64)
    }

    /// The node's header key (its `next` pointer cell).
    pub fn next_key(p: Ptr) -> Key {
        Key(p.key)
    }

    /// Nodes currently live (allocated − freed).
    pub fn live(&self) -> u64 {
        self.next_fresh - self.free.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        for p in [
            Ptr::NULL,
            Ptr { key: 42, aba: 7, mark: false },
            Ptr { key: u64::MAX - 1, aba: u32::MAX, mark: true },
        ] {
            assert_eq!(Ptr::decode(&p.encode()), p);
        }
    }

    #[test]
    fn empty_value_decodes_to_null() {
        assert_eq!(Ptr::decode(&Val::EMPTY), Ptr::NULL);
        assert!(Ptr::decode(&Val::from_u64(5)).is_null(), "short values are null");
    }

    #[test]
    fn mark_round_trip() {
        let p = Ptr { key: 9, aba: 1, mark: false };
        assert!(p.marked().mark);
        assert_eq!(p.marked().unmarked(), p);
        assert_ne!(p.marked().encode(), p.encode(), "mark changes the encoding");
    }

    #[test]
    fn arena_allocates_disjoint_nodes() {
        let mut a = NodeArena::new(100, 10, 4);
        let p1 = a.alloc();
        let p2 = a.alloc();
        assert_ne!(p1.key, p2.key);
        assert_eq!(p2.key - p1.key, 5, "stride = 1 header + 4 fields");
        // field keys nest inside the node span
        assert_eq!(NodeArena::field_key(p1, 0).0, p1.key + 1);
        assert_eq!(NodeArena::field_key(p1, 3).0, p1.key + 4);
        assert_eq!(NodeArena::next_key(p1).0, p1.key);
    }

    #[test]
    fn reuse_bumps_aba() {
        let mut a = NodeArena::new(10, 4, 0);
        let p = a.alloc();
        a.free(p);
        let q = a.alloc();
        assert_eq!(p.key, q.key, "slot reused");
        assert_eq!(q.aba, p.aba + 1, "ABA epoch bumped");
        assert_ne!(p.encode(), q.encode(), "stale pointer never matches");
    }

    #[test]
    fn live_accounting() {
        let mut a = NodeArena::new(10, 4, 1);
        let p = a.alloc();
        let _q = a.alloc();
        assert_eq!(a.live(), 2);
        a.free(p);
        assert_eq!(a.live(), 1);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut a = NodeArena::new(10, 2, 0);
        a.alloc();
        a.alloc();
        a.alloc();
    }
}
