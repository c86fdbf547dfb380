//! KVS operation mixes (§7: 8-byte keys, 32-byte values, uniform access).

use kite::api::Op;
use kite::session::SessionDriver;
use kite_common::rng::SplitMix64;
use kite_common::{ClusterConfig, Key, SessionId, Val};

use crate::skew::Zipf;

/// A workload mix. See the crate docs for the exact semantics (they follow
/// §8.1's worked example).
#[derive(Clone, Copy, Debug)]
pub struct MixCfg {
    /// Fraction of all operations that write (RMWs included), 0.0–1.0.
    pub write_ratio: f64,
    /// Fraction of plain writes that are releases / of reads that are
    /// acquires.
    pub sync_frac: f64,
    /// Fraction of all operations that are RMWs (must be ≤ `write_ratio`).
    pub rmw_frac: f64,
    /// Key-space size (uniform access).
    pub keys: u64,
    /// Value size in bytes (32 in the paper).
    pub val_len: usize,
    /// Zipfian skew over the key space; `0.0` (the paper's §7 setting) is
    /// uniform. Extension knob — see `crate::skew` and the `ext_skew`
    /// harness.
    pub skew_theta: f64,
}

impl MixCfg {
    /// A read/write mix with no synchronization (ES-style workloads).
    pub fn plain(write_ratio: f64, keys: u64) -> MixCfg {
        MixCfg { write_ratio, sync_frac: 0.0, rmw_frac: 0.0, keys, val_len: 32, skew_theta: 0.0 }
    }

    /// The paper's "typical synchronization" workload: 5% of reads are
    /// acquires and 5% of writes are releases (§8.1, Figure 5's Kite line).
    pub fn typical(write_ratio: f64, keys: u64) -> MixCfg {
        MixCfg { write_ratio, sync_frac: 0.05, rmw_frac: 0.0, keys, val_len: 32, skew_theta: 0.0 }
    }

    /// Builder: Zipfian skew (0 = uniform, the paper's setting).
    pub fn skew(mut self, theta: f64) -> MixCfg {
        self.skew_theta = theta;
        self
    }

    /// Validate the fractions.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("write_ratio", self.write_ratio),
            ("sync_frac", self.sync_frac),
            ("rmw_frac", self.rmw_frac),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} = {v} outside [0,1]"));
            }
        }
        if self.rmw_frac > self.write_ratio + 1e-9 {
            return Err(format!(
                "rmw_frac {} exceeds write_ratio {} (RMWs are writes)",
                self.rmw_frac, self.write_ratio
            ));
        }
        if self.keys == 0 {
            return Err("empty key space".into());
        }
        if self.skew_theta < 0.0 || self.skew_theta == 1.0 {
            return Err(format!("skew_theta {} must be ≥ 0 and ≠ 1", self.skew_theta));
        }
        Ok(())
    }

    /// Expected fraction of each op class: `(rmw, release, write, acquire,
    /// read)` — sums to 1. Mirrors §8.1's example arithmetic.
    pub fn class_fractions(&self) -> (f64, f64, f64, f64, f64) {
        let rmw = self.rmw_frac;
        let plain_w = self.write_ratio - self.rmw_frac;
        let rel = plain_w * self.sync_frac;
        let w = plain_w - rel;
        let reads = 1.0 - self.write_ratio;
        let acq = reads * self.sync_frac;
        let r = reads - acq;
        (rmw, rel, w, acq, r)
    }

    /// An infinite op generator for one session. Each generator gets its own
    /// deterministic stream from `seed`.
    pub fn generator(&self, seed: u64) -> impl FnMut(u64) -> Option<Op> + Send + 'static {
        let cfg = *self;
        debug_assert!(cfg.validate().is_ok());
        let zipf = (cfg.skew_theta > 0.0).then(|| Zipf::new(cfg.keys, cfg.skew_theta));
        let mut rng = SplitMix64::new(seed);
        move |_seq| {
            let key = Key(match &zipf {
                Some(z) => z.sample(&mut rng),
                None => rng.next_below(cfg.keys),
            });
            let r = rng.next_f64();
            Some(if r < cfg.rmw_frac {
                Op::Faa { key, delta: 1 }
            } else if r < cfg.write_ratio {
                let val = random_val(&mut rng, cfg.val_len);
                if rng.chance(cfg.sync_frac) {
                    Op::Release { key, val }
                } else {
                    Op::Write { key, val }
                }
            } else if rng.chance(cfg.sync_frac) {
                Op::Acquire { key }
            } else {
                Op::Read { key }
            })
        }
    }

    /// A generator per session of a `cfg` deployment: session `i` (its
    /// [`SessionId::global_idx`]) is seeded `seed ^ ((i + 1) · 0x9E37)`.
    pub fn drivers(self, cfg: &ClusterConfig, seed: u64) -> impl FnMut(SessionId) -> SessionDriver {
        self.validate().expect("invalid mix");
        let spn = cfg.sessions_per_node();
        move |sid| {
            let i = sid.global_idx(spn) as u64;
            SessionDriver::Script(Box::new(self.generator(seed ^ ((i + 1) * 0x9E37))))
        }
    }
}

fn random_val(rng: &mut SplitMix64, len: usize) -> Val {
    let mut bytes = vec![0u8; len];
    for chunk in bytes.chunks_mut(8) {
        let v = rng.next_u64().to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&v[..n]);
    }
    Val::from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classify(op: &Op) -> &'static str {
        match op {
            Op::Read { .. } => "read",
            Op::Write { .. } => "write",
            Op::Release { .. } => "release",
            Op::Acquire { .. } => "acquire",
            Op::Faa { .. } => "rmw",
            _ => "other",
        }
    }

    #[test]
    fn validation() {
        assert!(MixCfg::plain(0.5, 100).validate().is_ok());
        assert!(MixCfg { rmw_frac: 0.6, ..MixCfg::plain(0.5, 100) }.validate().is_err());
        assert!(MixCfg { write_ratio: 1.5, ..MixCfg::plain(0.5, 100) }.validate().is_err());
        assert!(MixCfg::plain(0.5, 0).validate().is_err());
    }

    #[test]
    fn paper_example_fractions() {
        // §8.1: 60% write ratio, 50% sync, 50% RMW → 50/5/5/20/20.
        let m = MixCfg { write_ratio: 0.6, sync_frac: 0.5, rmw_frac: 0.5, keys: 10, val_len: 32, skew_theta: 0.0 };
        let (rmw, rel, w, acq, r) = m.class_fractions();
        assert!((rmw - 0.50).abs() < 1e-9);
        assert!((rel - 0.05).abs() < 1e-9);
        assert!((w - 0.05).abs() < 1e-9);
        assert!((acq - 0.20).abs() < 1e-9);
        assert!((r - 0.20).abs() < 1e-9);
    }

    #[test]
    fn generator_matches_fractions_empirically() {
        let m = MixCfg { write_ratio: 0.6, sync_frac: 0.5, rmw_frac: 0.5, keys: 64, val_len: 32, skew_theta: 0.0 };
        let mut gen = m.generator(42);
        let mut counts = std::collections::HashMap::new();
        let n = 200_000;
        for i in 0..n {
            *counts.entry(classify(&gen(i).unwrap())).or_insert(0u64) += 1;
        }
        let frac = |k: &str| *counts.get(k).unwrap_or(&0) as f64 / n as f64;
        assert!((frac("rmw") - 0.50).abs() < 0.01, "rmw {}", frac("rmw"));
        assert!((frac("release") - 0.05).abs() < 0.01);
        assert!((frac("write") - 0.05).abs() < 0.01);
        assert!((frac("acquire") - 0.20).abs() < 0.01);
        assert!((frac("read") - 0.20).abs() < 0.01);
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let m = MixCfg::typical(0.2, 1000);
        let mut a = m.generator(7);
        let mut b = m.generator(7);
        for i in 0..100 {
            assert_eq!(format!("{:?}", a(i)), format!("{:?}", b(i)));
        }
    }

    #[test]
    fn keys_stay_in_range() {
        let m = MixCfg::plain(0.5, 17);
        let mut gen = m.generator(3);
        for i in 0..10_000 {
            let key = gen(i).unwrap().key();
            assert!(key.0 < 17);
        }
    }

    #[test]
    fn values_have_requested_length() {
        let m = MixCfg { val_len: 32, ..MixCfg::plain(1.0, 10) };
        let mut gen = m.generator(9);
        for i in 0..100 {
            if let Some(Op::Write { val, .. }) = gen(i) {
                assert_eq!(val.len(), 32);
            }
        }
    }
}
