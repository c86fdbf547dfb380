//! Property-based tests for the foundation types: the laws the protocol
//! layers assume.

use kite_common::rng::SplitMix64;
use kite_common::{Key, Lc, NodeId, NodeSet, Val};
use kite_verify::check::{check, Src};

fn lc(src: &mut Src) -> Lc {
    Lc::new(src.below(1000), NodeId(src.below(16) as u8))
}

/// LLC comparison is a total order: antisymmetric, transitive, total.
#[test]
fn lc_total_order() {
    check(256, |src| {
        let (a, b, c) = (lc(src), lc(src), lc(src));
        // totality
        assert!(a < b || b < a || a == b);
        // antisymmetry
        if a < b {
            assert!(b >= a);
        }
        // transitivity
        if a < b && b < c {
            assert!(a < c);
        }
    });
}

/// succ() always dominates, regardless of who owns the successor.
#[test]
fn lc_succ_dominates() {
    check(256, |src| {
        let (a, m) = (lc(src), src.below(16) as u8);
        assert!(a.succ(NodeId(m)) > a);
    });
}

/// Two distinct machines never mint the same clock from the same base —
/// the write-serialization property of §3.1.
#[test]
fn lc_succ_unique_per_machine() {
    check(256, |src| {
        let (a, m1, m2) = (lc(src), src.below(16) as u8, src.below(16) as u8);
        if m1 == m2 {
            return;
        }
        assert_ne!(a.succ(NodeId(m1)), a.succ(NodeId(m2)));
    });
}

/// NodeSet behaves like a set of small integers.
#[test]
fn nodeset_models_hashset() {
    check(256, |src| {
        let ops = src.vec(0..64, |s| (s.below(16) as u8, s.bool()));
        let mut ns = NodeSet::EMPTY;
        let mut hs = std::collections::HashSet::new();
        for (n, insert) in ops {
            if insert {
                ns.insert(NodeId(n));
                hs.insert(n);
            } else {
                ns.remove(NodeId(n));
                hs.remove(&n);
            }
            assert_eq!(ns.len(), hs.len());
            for i in 0..16u8 {
                assert_eq!(ns.contains(NodeId(i)), hs.contains(&i));
            }
        }
    });
}

/// Any two majority quorums of any deployment size intersect — the
/// foundation of ABD, Paxos, and the slow-release invariant.
#[test]
fn quorums_intersect() {
    check(256, |src| {
        let n = src.range(3..10) as usize;
        let pick = |src: &mut Src| {
            let mut set = NodeSet::EMPTY;
            for p in src.vec(0..9, |s| s.below(9) as u8) {
                if (p as usize) < n {
                    set.insert(NodeId(p));
                }
            }
            set
        };
        let (a, b) = (pick(src), pick(src));
        if a.is_quorum(n) && b.is_quorum(n) {
            assert!(!a.intersect(b).is_empty());
        }
    });
}

/// Val round-trips bytes through either representation.
#[test]
fn val_round_trips() {
    check(256, |src| {
        let bytes = src.vec(0..64, Src::u8);
        let v = Val::from_bytes(&bytes);
        assert_eq!(v.as_bytes(), &bytes[..]);
        assert_eq!(v.len(), bytes.len());
        assert_eq!(v.is_inline(), bytes.len() <= Val::INLINE_CAP);
    });
}

/// u64 encoding round-trips.
#[test]
fn val_u64_round_trips() {
    check(256, |src| {
        let x = src.u64();
        assert_eq!(Val::from_u64(x).as_u64(), x);
    });
}

/// Key hashing is deterministic and avalanches at least a little.
#[test]
fn key_hash_deterministic() {
    check(256, |src| {
        let k = src.u64();
        assert_eq!(Key(k).hash(), Key(k).hash());
        assert_ne!(Key(k).hash(), Key(k.wrapping_add(1)).hash());
    });
}

/// The PRNG is reproducible and respects bounds.
#[test]
fn rng_reproducible() {
    check(256, |src| {
        let (seed, bound) = (src.u64(), src.range(1..1_000_000));
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..32 {
            let x = a.next_below(bound);
            assert_eq!(x, b.next_below(bound));
            assert!(x < bound);
        }
    });
}
