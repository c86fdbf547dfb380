//! A tiny, fast, splittable PRNG (splitmix64 / xorshift-star family).
//!
//! Protocol engines and workload generators need cheap per-decision
//! randomness (key picks, jitter, drop decisions) on paths where pulling in
//! a full `rand` generator per worker would be overkill, and where
//! *determinism from a seed* matters: the discrete-event simulator must
//! replay identically given the same seed. `rand` is still used at the API
//! boundary of the workload crate; this type is the hot-path engine.

/// Deterministic 64-bit PRNG. `Clone + Copy`-free on purpose: state advances.
#[derive(Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    #[inline]
    /// A generator with the given seed.
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point family by mixing the seed once.
        SplitMix64 { state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15) }
    }

    /// Derive an independent stream (e.g. one per worker) from this one.
    #[inline]
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }

    #[inline]
    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // 128-bit multiply avoids modulo bias well enough for workloads.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: true with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn split_streams_are_independent_of_parent_progress() {
        let mut parent1 = SplitMix64::new(7);
        let child1 = parent1.split().next_u64();
        let mut parent2 = SplitMix64::new(7);
        let child2 = parent2.split().next_u64();
        assert_eq!(child1, child2);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert!(r.next_below(7) < 7);
        }
    }

    #[test]
    fn next_below_covers_range() {
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear: {seen:?}");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(11);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn chance_estimates_probability() {
        let mut r = SplitMix64::new(13);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.02, "p = {p}");
    }
}
