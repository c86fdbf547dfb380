//! Zipfian key skew — an *extension* beyond the paper's evaluation.
//!
//! §7 accesses keys uniformly. Real KVS workloads are skewed, and skew
//! stresses exactly the property §3.4 trades on: per-key Paxos extracts
//! request-level parallelism *across* keys, so piling RMWs onto a few hot
//! keys re-serializes them (slot chains + dueling proposers), while
//! relaxed ES accesses and ABD synchronization — which never retry — are
//! largely insensitive. The `ext_skew` harness measures this.
//!
//! The sampler is the standard YCSB-style Zipfian generator
//! (Gray et al., "Quickly generating billion-record synthetic databases",
//! SIGMOD '94): exact Zipf(θ) over `0..n` using precomputed zeta sums,
//! two uniform draws per sample, no rejection.

use kite_common::rng::SplitMix64;

/// A Zipf(θ) sampler over ranks `0..n` (rank 0 is the hottest key).
///
/// θ = 0 degenerates to uniform; YCSB's default is θ ≈ 0.99. θ ≥ 1 is
/// supported (the zeta sums stay finite for finite `n`).
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Build a sampler over `0..n` with skew `theta`.
    ///
    /// Precomputes `zeta(n, θ)` in O(n); build once per generator, not per
    /// sample.
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "empty key space");
        assert!(theta >= 0.0 && theta != 1.0, "theta must be ≥ 0 and ≠ 1");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The configured skew.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        if self.theta == 0.0 {
            return rng.next_below(self.n);
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Expected probability of rank `k` under Zipf(θ) (diagnostics/tests).
    pub fn pmf(&self, k: u64) -> f64 {
        if self.theta == 0.0 {
            return 1.0 / self.n as f64;
        }
        (1.0 / (k as f64 + 1.0).powf(self.theta)) / self.zetan
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(z: &Zipf, seed: u64, samples: u64) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        let mut h = vec![0u64; z.n() as usize];
        for _ in 0..samples {
            h[z.sample(&mut rng) as usize] += 1;
        }
        h
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipf::new(16, 0.0);
        let h = histogram(&z, 7, 160_000);
        for (k, &c) in h.iter().enumerate() {
            let f = c as f64 / 160_000.0;
            assert!((f - 1.0 / 16.0).abs() < 0.01, "rank {k}: {f}");
        }
    }

    #[test]
    fn samples_stay_in_range() {
        for theta in [0.0, 0.5, 0.99, 1.5] {
            let z = Zipf::new(100, theta);
            let mut rng = SplitMix64::new(3);
            for _ in 0..50_000 {
                assert!(z.sample(&mut rng) < 100);
            }
        }
    }

    #[test]
    fn frequencies_match_pmf() {
        let z = Zipf::new(64, 0.99);
        let samples = 400_000u64;
        let h = histogram(&z, 11, samples);
        // Check the head (where mass concentrates) against the exact pmf.
        for k in 0..8u64 {
            let f = h[k as usize] as f64 / samples as f64;
            let p = z.pmf(k);
            assert!(
                (f - p).abs() < p * 0.15 + 0.002,
                "rank {k}: sampled {f:.4} vs pmf {p:.4}"
            );
        }
    }

    #[test]
    fn higher_theta_concentrates_more() {
        let samples = 200_000u64;
        let mass_top = |theta: f64| {
            let z = Zipf::new(1024, theta);
            let h = histogram(&z, 5, samples);
            h[..8].iter().sum::<u64>() as f64 / samples as f64
        };
        let u = mass_top(0.0);
        let m = mass_top(0.9);
        let hot = mass_top(1.4);
        assert!(u < 0.02, "uniform top-8 mass {u}");
        assert!(m > u * 5.0, "θ=0.9 must concentrate ({m} vs {u})");
        assert!(hot > m, "θ=1.4 must concentrate further ({hot} vs {m})");
    }

    #[test]
    fn deterministic_per_seed() {
        let z = Zipf::new(100, 0.99);
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..1000 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "empty key space")]
    fn rejects_empty_range() {
        let _ = Zipf::new(0, 0.5);
    }
}
