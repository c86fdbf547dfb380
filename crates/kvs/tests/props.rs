//! Property-based tests for the store: the LLC write-serialization rule
//! must make replicas order-insensitive (the convergence property ES and
//! ABD rely on, §3.2/§3.3).

use kite_common::{Epoch, Key, Lc, NodeId, Val};
use kite_kvs::Store;
use kite_verify::check::{check, Src};

fn writes(src: &mut Src) -> Vec<(u64, u8, u64)> {
    // (version, mid, value) triples — possibly with duplicate clocks
    src.vec(1..40, |s| (s.range(1..50), s.below(5) as u8, s.u64()))
}

/// Applying the same set of LLC-stamped writes in any two orders yields
/// the same final value: the max-clock write wins everywhere.
#[test]
fn apply_max_is_order_insensitive() {
    check(128, |src| {
        let (ws, seed) = (writes(src), src.u64());
        // Clocks are unique per write in the real system (a machine never
        // stamps two writes of one key with the same clock): dedupe.
        let mut seen = std::collections::HashSet::new();
        let ws: Vec<_> = ws.into_iter().filter(|(v, m, _)| seen.insert((*v, *m))).collect();
        let a = Store::new(64);
        let b = Store::new(64);
        let key = Key(7);
        for (v, m, val) in &ws {
            a.apply_max(key, &Val::from_u64(*val), Lc::new(*v, NodeId(*m)));
        }
        // permute deterministically
        let mut perm = ws.clone();
        let mut rng = kite_common::rng::SplitMix64::new(seed);
        for i in (1..perm.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        for (v, m, val) in &perm {
            b.apply_max(key, &Val::from_u64(*val), Lc::new(*v, NodeId(*m)));
        }
        assert_eq!(a.view(key).val, b.view(key).val);
        assert_eq!(a.view(key).lc, b.view(key).lc);
        // and the final clock is the max of all applied clocks
        let max = ws.iter().map(|(v, m, _)| Lc::new(*v, NodeId(*m))).max().unwrap();
        assert_eq!(a.view(key).lc, max);
    });
}

/// Redelivery (applying a write twice) never changes the outcome.
#[test]
fn apply_max_idempotent() {
    check(128, |src| {
        let ws = writes(src);
        let a = Store::new(64);
        let key = Key(3);
        for (v, m, val) in &ws {
            a.apply_max(key, &Val::from_u64(*val), Lc::new(*v, NodeId(*m)));
        }
        let before = a.view(key);
        for (v, m, val) in &ws {
            a.apply_max(key, &Val::from_u64(*val), Lc::new(*v, NodeId(*m)));
        }
        assert_eq!(a.view(key), before);
    });
}

/// fast_write clocks are strictly monotone per key and the epoch gate
/// is exact.
#[test]
fn fast_write_monotone_and_epoch_gated() {
    check(128, |src| {
        let (n, epoch) = (src.range(1..30), src.below(4));
        let s = Store::new(64);
        let key = Key(1);
        s.restore_epoch(key, Epoch(epoch));
        let mut last = Lc::ZERO;
        for i in 0..n {
            let lc = s
                .fast_write(key, &Val::from_u64(i), NodeId(2), Epoch(epoch))
                .expect("in-epoch write");
            assert!(lc > last);
            last = lc;
        }
        // wrong machine epoch is refused
        assert!(s.fast_write(key, &Val::EMPTY, NodeId(2), Epoch(epoch + 1)).is_none());
    });
}

/// Epochs never regress through any combination of restores.
#[test]
fn epochs_monotone() {
    check(128, |src| {
        let s = Store::new(64);
        let key = Key(9);
        let mut max = 0;
        for e in src.vec(1..32, |s| s.below(16)) {
            s.restore_epoch(key, Epoch(e));
            max = max.max(e);
            assert_eq!(s.view(key).epoch, Epoch(max));
        }
    });
}

/// Values of every length up to `MAX_VAL` — some inline in the slot,
/// some spilling into the key's extension — read back exactly, whatever
/// length the key held before: no stale tail byte ever shows, and a key
/// takes at most one extension.
#[test]
fn values_of_any_length_read_back_exactly() {
    check(128, |src| {
        let max_len = kite_kvs::record::MAX_VAL as u64 + 1;
        let ws = src.vec(1..60, |s| (s.below(4), s.below(max_len) as usize, s.u8()));
        let s = Store::new(64);
        let mut last = std::collections::HashMap::new();
        let mut spilled = std::collections::HashSet::new();
        for (i, (k, len, seed)) in ws.into_iter().enumerate() {
            let bytes: Vec<u8> = (0..len).map(|j| seed.wrapping_add(j as u8)).collect();
            let val = Val::from_bytes(&bytes);
            s.apply_ordered(Key(k), &val, Lc::new(i as u64 + 1, NodeId(0)));
            if len > Val::INLINE_CAP {
                spilled.insert(k);
            }
            last.insert(k, val);
            for (k, v) in &last {
                assert_eq!(&s.view(Key(*k)).val, v);
            }
        }
        assert_eq!(s.exts(), spilled.len());
    });
}

/// The Merkle lattice is a function of `keys` and the written `(key, lc)`
/// set alone: two replicas filled in different orders hash every leaf
/// equal, and each key is digested under exactly its own leaf — keys whose
/// probe run wraps past the last slot included.
#[test]
fn leaf_geometry_is_the_same_on_every_replica() {
    check(64, |src| {
        let keys = src.range(64..3000) as usize;
        let a = Store::new(keys);
        let b = Store::new(keys);
        let (cap, leaves) = (a.capacity(), a.merkle_leaves());
        // More keys homed in the last leaf than it has slots, so at least
        // one run wraps to the front of the array.
        let span = cap / leaves;
        let tail = span + src.range(1..17) as usize;
        let base = src.u64() >> 1;
        let mut set: Vec<u64> =
            (base..).filter(|&k| a.leaf_of(Key(k)) == leaves - 1).take(tail).collect();
        let others = src.below((cap - tail) as u64 + 1) as usize;
        set.extend(src.vec(others..others + 1, |s| s.u64() >> 1));
        set.sort_unstable();
        set.dedup();
        let writes: Vec<(u64, Lc)> = set
            .iter()
            .map(|&k| (k, Lc::new(src.range(1..9), NodeId(src.below(5) as u8))))
            .collect();
        for &(k, lc) in &writes {
            a.apply_max(Key(k), &Val::from_u64(k), lc);
        }
        let mut perm = writes.clone();
        let mut rng = kite_common::rng::SplitMix64::new(src.u64());
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        for &(k, lc) in &perm {
            b.apply_max(Key(k), &Val::from_u64(k), lc);
        }
        for leaf in 0..leaves {
            assert_eq!(a.leaf_hash(leaf), b.leaf_hash(leaf), "leaf {leaf} of {leaves}");
        }
        for s in [&a, &b] {
            // A key homed in the last leaf but held before it wrapped.
            let mut front = Vec::new();
            s.digest_range(0, cap - span, &mut front);
            assert!(
                front.iter().any(|(k, _)| s.leaf_of(*k) == leaves - 1),
                "no run wrapped past the last slot"
            );
            let mut seen = std::collections::HashMap::new();
            for leaf in 0..leaves {
                let mut out = Vec::new();
                s.digest_leaf(leaf, &mut out);
                for (k, _) in out {
                    assert_eq!(s.leaf_of(k), leaf, "{k} digested under leaf {leaf}");
                    *seen.entry(k.0).or_insert(0) += 1;
                }
            }
            assert_eq!(seen.len(), set.len());
            assert!(seen.values().all(|&n| n == 1), "a key digested twice");
        }
    });
}
