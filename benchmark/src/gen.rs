//! Generated inputs shared by all four workloads: the `MixCfg` op stream of
//! each session, with a fixed, sparse schedule of check operations woven in
//! on reserved keys — release/acquire litmus pairs and a fetch-and-add
//! counter — plus the linear-time checker for their outcomes.
//!
//! The program under test sees only generated ops; the seed never reaches it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use kite::api::{Completion, Op, OpOutput};
use kite_common::rng::SplitMix64;
use kite_common::{Key, Val};
use kite_workloads::MixCfg;

/// Reserved keys sit far above every mix's key space.
const RESERVED: u64 = 1 << 40;
/// The fetch-and-add counter every FAA session bumps by one.
pub const COUNTER: Key = Key(RESERVED);

/// Data key of litmus pair `p`.
pub fn data_key(p: u64) -> Key {
    Key(RESERVED + 0x100 + p)
}

/// Flag key of litmus pair `p`.
pub fn flag_key(p: u64) -> Key {
    Key(RESERVED + 0x200 + p)
}

/// A 32-byte value (the paper's size) drawn from `rng`.
pub fn val32(rng: &mut SplitMix64) -> Val {
    let mut b = [0u8; 32];
    for c in b.chunks_mut(8) {
        c.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    Val::from_bytes(&b)
}

fn pair_of(key: Key, base: u64) -> Option<usize> {
    key.0
        .checked_sub(RESERVED + base)
        .filter(|p| *p < 0x100)
        .map(|p| p as usize)
}

/// The check operations one session weaves into its stream. Every `period`
/// ops: a producer issues `write(data, i); release(flag, i)` at offsets 0
/// and 1, a consumer `acquire(flag); read(data)` at `period/2` and
/// `period/2 + 1`, an FAA session `faa(counter, 1)` at `3·period/4`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Role {
    pub produce: Option<u64>,
    pub consume: Option<u64>,
    pub faa: bool,
    pub period: u64,
}

impl Role {
    fn op_at(&self, seq: u64) -> Option<Op> {
        if self.period == 0 {
            return None;
        }
        let (round, at) = (seq / self.period + 1, seq % self.period);
        let half = self.period / 2;
        match (self.produce, self.consume) {
            (Some(p), _) if at == 0 => Some(Op::Write {
                key: data_key(p),
                val: Val::from_u64(round),
            }),
            (Some(p), _) if at == 1 => Some(Op::Release {
                key: flag_key(p),
                val: Val::from_u64(round),
            }),
            (_, Some(p)) if at == half => Some(Op::Acquire { key: flag_key(p) }),
            (_, Some(p)) if at == half + 1 => Some(Op::Read { key: data_key(p) }),
            _ if self.faa && at == half + half / 2 => Some(Op::Faa {
                key: COUNTER,
                delta: 1,
            }),
            _ => None,
        }
    }
}

/// Per-session op stream: `mix.generator(seed)` with `role`'s check ops
/// substituted at their fixed offsets.
pub fn stream(mix: MixCfg, seed: u64, role: Role) -> impl FnMut(u64) -> Op + Send + 'static {
    let mut inner = mix.generator(seed);
    move |seq| match role.op_at(seq) {
        Some(op) => op,
        None => inner(seq).expect("MixCfg::generator is infinite"),
    }
}

/// Load control and accounting shared between a run's sessions and its
/// harness: a stop flag the scripts poll, and the count of ops handed out.
#[derive(Default)]
pub struct Load {
    pub stop: AtomicBool,
    pub attempted: AtomicU64,
}

/// Wrap a stream as a simulator script: counts every op handed out and
/// ends the script once the harness stops the load.
// ordering: Relaxed throughout — the simulator is single-threaded; the
// atomics only satisfy the `Send` bound on session scripts.
pub fn script(
    mut next: impl FnMut(u64) -> Op + Send + 'static,
    load: Arc<Load>,
) -> impl FnMut(u64) -> Option<Op> + Send + 'static {
    move |seq| {
        if load.stop.load(Ordering::Relaxed) {
            return None;
        }
        load.attempted.fetch_add(1, Ordering::Relaxed);
        Some(next(seq))
    }
}

/// Outcome of the woven-in checks, fed one completion at a time (session
/// order within a session is all it needs, so cost is O(1) per op).
#[derive(Debug, Default)]
pub struct Litmus {
    /// Last flag value each pair's consumer acquired.
    acquired: Vec<u64>,
    /// Highest round whose release was acknowledged, per pair.
    pub released: Vec<u64>,
    /// Consumer reads checked / reads that saw data older than the flag.
    pub pairs_checked: u64,
    pub violations: u64,
    /// Acknowledged FAAs on the counter.
    pub faa_acked: u64,
    /// Two FAAs returned the same pre-image (an increment was lost).
    pub faa_dupes: u64,
    faa_seen: std::collections::HashSet<u64>,
}

impl Litmus {
    pub fn new(pairs: usize) -> Self {
        Litmus {
            acquired: vec![0; pairs],
            released: vec![0; pairs],
            ..Default::default()
        }
    }

    /// Account one completed operation.
    pub fn observe(&mut self, c: &Completion) {
        match (&c.op, &c.output) {
            (Op::Faa { key, .. }, OpOutput::Faa(old)) if *key == COUNTER => {
                self.faa_acked += 1;
                if !self.faa_seen.insert(*old) {
                    self.faa_dupes += 1;
                }
            }
            (Op::Release { key, val }, _) => {
                if let Some(p) = pair_of(*key, 0x200) {
                    self.released[p] = self.released[p].max(val.as_u64());
                }
            }
            (Op::Acquire { key }, OpOutput::Value(v)) => {
                if let Some(p) = pair_of(*key, 0x200) {
                    self.acquired[p] = v.as_u64();
                }
            }
            (Op::Read { key }, OpOutput::Value(v)) => {
                if let Some(p) = pair_of(*key, 0x100) {
                    self.pairs_checked += 1;
                    if v.as_u64() < self.acquired[p] {
                        self.violations += 1;
                    }
                }
            }
            _ => {}
        }
    }

    /// Fold another session's tallies into this one (disjoint pairs).
    pub fn merge(&mut self, other: Litmus) {
        for (a, b) in self.acquired.iter_mut().zip(other.acquired) {
            *a = (*a).max(b);
        }
        for (a, b) in self.released.iter_mut().zip(other.released) {
            *a = (*a).max(b);
        }
        self.pairs_checked += other.pairs_checked;
        self.violations += other.violations;
        self.faa_acked += other.faa_acked;
        for old in other.faa_seen {
            if !self.faa_seen.insert(old) {
                self.faa_dupes += 1;
            }
        }
        self.faa_dupes += other.faa_dupes;
    }
}

/// A `Litmus` behind a mutex, for the simulator's completion hook.
pub type SharedLitmus = Arc<Mutex<Litmus>>;

/// Is `key` one the checks own (so the hook can skip everything else)?
pub fn is_reserved(key: Key) -> bool {
    key.0 >= RESERVED && key.0 < RESERVED + 0x300
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_common::{NodeId, OpId, SessionId};

    fn done(op: Op, output: OpOutput) -> Completion {
        let op_id = OpId::new(SessionId::new(NodeId(0), 0), 0);
        Completion {
            op_id,
            op,
            output,
            invoked_at: 0,
            completed_at: 0,
        }
    }

    #[test]
    fn roles_weave_checks_at_fixed_offsets_and_streams_repeat_per_seed() {
        let role = Role {
            produce: Some(0),
            consume: Some(1),
            faa: true,
            period: 64,
        };
        let mix = MixCfg::typical(0.2, 1 << 16);
        let ops = |seed| {
            let mut s = stream(mix, seed, role);
            (0..256).map(|i| format!("{:?}", s(i))).collect::<Vec<_>>()
        };
        let a = ops(7);
        assert_eq!(a, ops(7), "same seed, same inputs");
        assert_ne!(a, ops(8), "another seed, other inputs");
        assert!(a[64].contains("Write") && a[64].contains(&format!("{}", data_key(0).0)));
        assert!(a[65].contains("Release"));
        assert!(a[32].contains("Acquire") && a[33].contains("Read"));
        assert!(a[48].contains("Faa"));
        let reserved = (0..256u64).filter(|&i| role.op_at(i).is_some()).count();
        assert_eq!(reserved, 4 * 5);
    }

    #[test]
    fn litmus_flags_stale_reads_and_lost_increments() {
        let mut l = Litmus::new(2);
        l.observe(&done(
            Op::Acquire { key: flag_key(1) },
            OpOutput::Value(Val::from_u64(5)),
        ));
        l.observe(&done(
            Op::Read { key: data_key(1) },
            OpOutput::Value(Val::from_u64(5)),
        ));
        l.observe(&done(
            Op::Read { key: data_key(1) },
            OpOutput::Value(Val::from_u64(9)),
        ));
        assert_eq!((l.pairs_checked, l.violations), (2, 0));
        l.observe(&done(
            Op::Read { key: data_key(1) },
            OpOutput::Value(Val::from_u64(4)),
        ));
        assert_eq!(l.violations, 1);
        // ordinary keys are ignored
        l.observe(&done(
            Op::Read { key: Key(3) },
            OpOutput::Value(Val::from_u64(0)),
        ));
        assert_eq!(l.pairs_checked, 3);
        l.observe(&done(
            Op::Faa {
                key: COUNTER,
                delta: 1,
            },
            OpOutput::Faa(0),
        ));
        l.observe(&done(
            Op::Faa {
                key: COUNTER,
                delta: 1,
            },
            OpOutput::Faa(1),
        ));
        assert_eq!((l.faa_acked, l.faa_dupes), (2, 0));
        let mut other = Litmus::new(2);
        other.observe(&done(
            Op::Faa {
                key: COUNTER,
                delta: 1,
            },
            OpOutput::Faa(1),
        ));
        other.observe(&done(
            Op::Release {
                key: flag_key(0),
                val: Val::from_u64(3),
            },
            OpOutput::Done,
        ));
        l.merge(other);
        assert_eq!((l.faa_acked, l.faa_dupes, l.released[0]), (3, 1, 3));
    }
}
