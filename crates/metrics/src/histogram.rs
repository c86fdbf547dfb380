//! Log2-bucketed latency histogram with lock-free recording and mergeable
//! snapshots.
//!
//! Each worker (or subsystem) owns a [`Histogram`] and records into it with a
//! handful of relaxed `fetch_add`s — no locks, no allocation, no contention
//! beyond the cache line of the touched bucket. A scraper takes a
//! [`HistogramSnapshot`] (a plain array copy), merges snapshots from many
//! workers with [`HistogramSnapshot::merge`], and reads quantiles off the
//! merged counts. Merging is associative and commutative (it is element-wise
//! `u64` addition), which is what makes per-worker histograms equivalent to
//! one shared histogram for p50/p99/p999 reporting.
//!
//! Bucket `i` covers values in `[2^i, 2^(i+1))`; value 0 lands in bucket 0.
//! With 64 buckets the full `u64` range is covered, so nanosecond latencies
//! never saturate. A quantile query returns the *upper bound* of the bucket
//! containing that rank — a conservative (over-)estimate with relative error
//! bounded by 2x, the standard trade-off for log2 buckets.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: covers the whole `u64` range.
pub const BUCKETS: usize = 64;

/// Bucket index for a value: `floor(log2(v))`, with 0 mapping to bucket 0.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// Lock-free log2 histogram. All state is inline fixed-size atomics, so
/// construction is the only allocation (of the containing `Arc`, if any) and
/// recording is allocation-free by construction.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample. Hot path: three relaxed `fetch_add`s, no branches
    /// beyond the bucket computation, no allocation.
    // kite-lint: no-alloc
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current bucket counts out. The copy is not atomic across
    /// buckets (a concurrent `record` may be half-visible), which is fine
    /// for monitoring: every bucket value is a real count that was true at
    /// some point during the copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut s = HistogramSnapshot::default();
        for (i, b) in self.buckets.iter().enumerate() {
            s.buckets[i] = b.load(Ordering::Relaxed);
        }
        s.count = s.buckets.iter().sum();
        s.sum = self.sum.load(Ordering::Relaxed);
        s
    }
}

/// Plain-data snapshot of a [`Histogram`]: mergeable, clonable, queryable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Element-wise addition: associative and commutative, so per-worker
    /// snapshots merge into the same result in any order or grouping.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        // sum wraps, matching the atomic fetch_add semantics of `record`
        // (a wrapped sum only skews `mean`, never the bucket quantiles).
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0 < q <= 1.0`). Returns 0 for an empty snapshot. Monotone in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // rank in [1, count]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i is 2^(i+1) - 1; saturate at the top.
                return if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
            }
        }
        u64::MAX
    }

    /// Mean of recorded samples (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn record_and_quantile() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 8, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert!(s.quantile(1.0) >= 1_000_000);
        assert!(s.p50() >= 4);
        // quantile is an upper bound of the containing bucket
        assert!(s.p50() <= 8 * 2);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p999(), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
