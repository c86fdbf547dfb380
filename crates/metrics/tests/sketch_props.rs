//! Property tests for the sketch/histogram math.
//!
//! - HLL estimate vs exact distinct count across cardinalities 1 → 1M
//!   (seeded, deterministic): the estimate must stay inside the bound the
//!   e2e acceptance test relies on (5%; theoretical std error at B=12 is
//!   ~1.6%, so 5% is ~3 sigma).
//! - Histogram snapshot merge is associative and commutative.
//! - Quantiles are monotone in q, bounded by min/max buckets, and stable
//!   under merge order.

use kite_metrics::{Histogram, HistogramSnapshot, Hll};
use kite_verify::check::{check, Src};

/// SplitMix64 with a different stream than the sketch's internal mix, so the
/// test isn't accidentally correlated with the hash under test.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// HLL error bound across five decades of cardinality. Not a property
/// test: the cardinality ladder is the interesting axis and must be covered
/// exactly, not sampled.
#[test]
fn hll_error_bound_1_to_1m() {
    for &n in &[1u64, 10, 100, 1_000, 10_000, 100_000, 1_000_000] {
        let sk = Hll::new();
        let mut rng = Rng(0xD15_7A11 ^ n);
        let mut exact = std::collections::HashSet::new();
        for _ in 0..n {
            let k = rng.next();
            exact.insert(k);
            sk.observe(k);
        }
        let est = sk.estimate() as f64;
        let truth = exact.len() as f64;
        let rel = (est - truth).abs() / truth;
        assert!(
            rel <= 0.05,
            "cardinality {n}: exact {truth}, estimate {est}, rel err {rel:.4}"
        );
    }
}

/// Duplicates must not inflate the estimate: observing the same stream ten
/// times over is the same sketch state as observing it once.
#[test]
fn hll_duplicate_insensitive() {
    let once = Hll::new();
    let tenfold = Hll::new();
    let mut rng = Rng(7);
    let keys: Vec<u64> = (0..5_000).map(|_| rng.next()).collect();
    for &k in &keys {
        once.observe(k);
    }
    for _ in 0..10 {
        for &k in &keys {
            tenfold.observe(k);
        }
    }
    assert_eq!(once.estimate(), tenfold.estimate());
}

fn snap_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// (a + b) + c == a + (b + c) and a + b == b + a, element-wise.
#[test]
fn merge_associative_commutative() {
    check(128, |src| {
        let [a, b, c] = [(); 3].map(|_| src.vec(0..64, Src::u64));
        let (sa, sb, sc) = (snap_of(&a), snap_of(&b), snap_of(&c));

        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);

        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);

        assert_eq!(&left, &right);

        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(&ab, &ba);
    });
}

/// Merging per-worker snapshots equals one shared histogram over the
/// concatenated samples — the property that makes per-worker histograms
/// a valid sharding of the cluster-wide distribution.
#[test]
fn merge_equals_concatenation() {
    check(128, |src| {
        let (a, b) = (src.vec(0..64, Src::u64), src.vec(0..64, Src::u64));
        let mut merged = snap_of(&a);
        merged.merge(&snap_of(&b));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        assert_eq!(merged, snap_of(&all));
    });
}

/// quantile(q) is monotone non-decreasing in q, and every quantile of a
/// non-empty snapshot is bounded by the recorded extremes' buckets.
#[test]
fn quantile_monotone() {
    check(128, |src| {
        let values = src.vec(1..128, Src::u64);
        let qs = src.vec(2..16, |s| s.range(1..1000));
        let s = snap_of(&values);
        let mut sorted: Vec<f64> = qs.iter().map(|&q| q as f64 / 1000.0).collect();
        sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let mut prev = 0u64;
        for &q in &sorted {
            let v = s.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < previous {prev}");
            prev = v;
        }
        // bounds: every quantile at least reaches the min sample's bucket
        // floor and never exceeds the max sample's bucket upper bound.
        let max = *values.iter().max().unwrap();
        let hi = s.quantile(1.0);
        assert!(hi >= max, "q=1.0 gave {hi} < max sample {max}");
    });
}

/// p50 <= p99 <= p999 always, on arbitrary inputs.
#[test]
fn named_quantiles_ordered() {
    check(128, |src| {
        let s = snap_of(&src.vec(0..256, Src::u64));
        assert!(s.p50() <= s.p99());
        assert!(s.p99() <= s.p999());
    });
}
