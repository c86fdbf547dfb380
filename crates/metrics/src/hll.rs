//! HyperLogLog distinct-value sketch with lock-free CAS-max registers.
//!
//! # Register layout
//!
//! The sketch is a flat array of `m = 2^B` one-byte registers (`B = 12`,
//! `m = 4096`, 4 KiB total — one page). An observed key is first avalanched
//! through a SplitMix64 finalizer so consecutive keys (the common case for a
//! KVS keyspace) spread uniformly over 64 bits. The hash is then split:
//!
//! ```text
//!   63            52 51                                0
//!  +----------------+----------------------------------+
//!  |  register idx  |  suffix w (52 bits)              |
//!  +----------------+----------------------------------+
//!        B bits        rho(w) = leading zeros of w + 1
//! ```
//!
//! * the top `B` bits select which register the observation lands in;
//! * the remaining `64 - B` bits form the suffix `w`, and the register
//!   stores the *maximum* `rho(w)` ever seen, where `rho` is the position
//!   of the highest set bit counted from the top (i.e. `leading zeros + 1`,
//!   capped at `64 - B + 1` for the all-zero suffix).
//!
//! A register value of `r` is evidence of roughly `2^r` distinct suffixes
//! hashed into that register; the harmonic mean across all `m` registers
//! gives the cardinality estimate with standard error `1.04 / sqrt(m)` —
//! about **1.6%** at `B = 12`, comfortably inside the 5% bound the e2e
//! acceptance test asserts.
//!
//! # Concurrency
//!
//! Updates are a CAS-max loop on an `AtomicU8`: load, and only if the new
//! rank is larger, `compare_exchange_weak` it in, retrying on races. The
//! register value only ever grows, so the loop terminates after at most a
//! few iterations (a racing writer that beats us either wrote a larger
//! value — we stop — or a smaller one — impossible, it would not have CASed).
//! No locks, no allocation: `observe` is a no-alloc region and is covered by
//! the allocation-guard test in `crates/lint/tests/alloc_guard.rs`.
//!
//! Estimation reads every register with relaxed loads; like every scrape in
//! this crate it is a monitoring-grade snapshot, not a linearizable one.

use std::sync::atomic::{AtomicU8, Ordering};

/// log2 of the register count. 12 → 4096 registers → ~1.6% standard error.
pub const HLL_B: u32 = 12;
/// Number of registers (`2^HLL_B`).
pub const HLL_M: usize = 1 << HLL_B;

/// SplitMix64 finalizer: full-avalanche 64-bit mix. Public so tests and
/// callers that need a matching "exact" distinct count can hash the same way.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Lock-free HyperLogLog sketch. See the module docs for the register layout.
pub struct Hll {
    registers: Box<[AtomicU8; HLL_M]>,
}

impl Default for Hll {
    fn default() -> Self {
        Self::new()
    }
}

impl Hll {
    pub fn new() -> Self {
        // Construction is the only allocation this type ever performs; the
        // 4 KiB register page lives behind one Box so Hll itself stays small
        // enough to embed in shared structs without bloating them.
        Hll {
            registers: Box::new(std::array::from_fn(|_| AtomicU8::new(0))),
        }
    }

    /// Observe one key. Lock-free CAS-max on a single register byte.
    // kite-lint: no-alloc
    #[inline]
    pub fn observe(&self, key: u64) {
        let h = mix64(key);
        let idx = (h >> (64 - HLL_B)) as usize;
        let w = h << HLL_B; // suffix shifted to the top; zeros shift in below
        // rho: leading zeros of the (64-B)-bit suffix + 1, capped for w == 0.
        let rank = if w == 0 {
            (64 - HLL_B + 1) as u8
        } else {
            (w.leading_zeros() + 1) as u8
        };
        let reg = &self.registers[idx];
        let mut cur = reg.load(Ordering::Relaxed);
        while rank > cur {
            match reg.compare_exchange_weak(cur, rank, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Cardinality estimate with the standard small-range (linear counting)
    /// correction. 64-bit hashes make the classic large-range correction
    /// unnecessary at any cardinality this system can produce.
    pub fn estimate(&self) -> u64 {
        let m = HLL_M as f64;
        let mut inv_sum = 0.0f64;
        let mut zeros = 0u64;
        for reg in self.registers.iter() {
            let r = reg.load(Ordering::Relaxed);
            if r == 0 {
                zeros += 1;
            }
            inv_sum += 1.0 / (1u64 << r.min(63)) as f64;
        }
        // alpha_m for m >= 128
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let raw = alpha * m * m / inv_sum;
        let est = if raw <= 2.5 * m && zeros > 0 {
            // linear counting: far more accurate when most registers are empty
            m * (m / zeros as f64).ln()
        } else {
            raw
        };
        est.round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_estimates_zero() {
        assert_eq!(Hll::new().estimate(), 0);
    }

    #[test]
    fn observe_is_idempotent() {
        let h = Hll::new();
        for _ in 0..1000 {
            h.observe(42);
        }
        let e = h.estimate();
        assert!(e >= 1 && e <= 2, "single key estimated as {e}");
    }

    #[test]
    fn small_cardinalities_near_exact() {
        let h = Hll::new();
        for k in 0..100u64 {
            h.observe(k);
        }
        let e = h.estimate() as i64;
        assert!((e - 100).abs() <= 5, "estimate {e} for 100 distinct keys");
    }
}
