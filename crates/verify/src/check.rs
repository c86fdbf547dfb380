//! Property checks that shrink their failures.
//!
//! A property is a closure over a choice source [`Src`]. Every value it
//! generates comes from one primitive, [`Src::below`], and every choice is
//! recorded, so a case is a pure function of its choice sequence: replaying
//! the sequence replays the case (the simulator is deterministic too).
//! Ranges, bools, weighted picks and collections are built on `below`; a
//! collection draws one continue-choice per optional element, so deleting
//! a span of choices deletes elements.
//!
//! [`check`] runs a property for a number of cases. When one panics, the
//! recorded sequence is shrunk — spans deleted (whole collection elements
//! first), choices zeroed, each choice lowered by binary search — keeping
//! any variant that still panics, within a fixed attempt budget and
//! without printing. This is the reduction of
//! the Hypothesis reducer (MacIver & Donaldson, ECOOP 2020): it works on
//! the sequence, so no generator needs shrinking code of its own. The
//! runner then panics with the original message, the shrunk case's message
//! and a one-line replay.
//!
//! Each property's seed is derived from its test's name (libtest names the
//! thread a test runs on), perturbed by `KITE_CHECK_SEED=<u64>` when set.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use kite_common::rng::SplitMix64;

/// The environment variable that perturbs every property's seed.
const SEED_VAR: &str = "KITE_CHECK_SEED";

/// Runs of the property a shrink may spend.
const SHRINK_BUDGET: u32 = 2_000;

/// Where a property's choices come from: a seeded generator, or a recorded
/// sequence being replayed (past its end every choice is 0, the simplest).
pub struct Src {
    choices: Vec<u64>,
    at: usize,
    rng: Option<SplitMix64>,
    /// The choices of each optional collection element drawn, its
    /// continue-choice first: deleting them deletes just that element.
    elements: Vec<Range<usize>>,
}

impl Src {
    fn new(choices: Vec<u64>, rng: Option<SplitMix64>) -> Self {
        Src { choices, at: 0, rng, elements: Vec::new() }
    }

    /// A choice in `[0, n)`; `n` must be non-zero. A replayed choice too
    /// large for `n` is clamped, so lowering a choice never raises a value.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Src::below(0)");
        if self.at == self.choices.len() {
            let v = self.rng.as_mut().map_or(0, |r| r.next_below(n));
            self.choices.push(v);
        }
        let v = self.choices[self.at].min(n - 1);
        self.choices[self.at] = v;
        self.at += 1;
        v
    }

    /// A value in `r` (non-empty).
    pub fn range(&mut self, r: Range<u64>) -> u64 {
        r.start + self.below(r.end - r.start)
    }

    /// A coin flip.
    pub fn bool(&mut self) -> bool {
        self.below(2) == 1
    }

    /// Any byte.
    pub fn u8(&mut self) -> u8 {
        self.below(1 << 8) as u8
    }

    /// Any `u32`.
    pub fn u32(&mut self) -> u32 {
        self.below(1 << 32) as u32
    }

    /// Any `u64` short of `u64::MAX`, as one choice (one choice shrinks
    /// to the smallest failing value; two halves would stop at `1 << 32`).
    pub fn u64(&mut self) -> u64 {
        self.below(u64::MAX)
    }

    /// An index into `weights`, picked with probability proportional to
    /// its weight; shrinks toward the first.
    pub fn pick(&mut self, weights: &[u64]) -> usize {
        let mut x = self.below(weights.iter().sum());
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        unreachable!("a choice below the weights' sum")
    }

    /// A vector of `elem`s with a length uniform in `len` (non-empty). Each
    /// element past `len.start` is preceded by a continue-choice, 0 meaning
    /// stop: at the `i`-th optional element it is drawn below `span - i`,
    /// which makes every length equally likely.
    pub fn vec<T>(&mut self, len: Range<usize>, mut elem: impl FnMut(&mut Src) -> T) -> Vec<T> {
        assert!(len.start < len.end, "empty length range");
        let span = (len.end - len.start) as u64;
        let mut out: Vec<T> = (0..len.start).map(|_| elem(self)).collect();
        for i in 0..span - 1 {
            let start = self.at;
            if self.below(span - i) == 0 {
                break;
            }
            out.push(elem(self));
            self.elements.push(start..self.at);
        }
        out
    }
}

thread_local! {
    /// Set while this thread runs shrink attempts: their panics stay silent.
    static QUIET: Cell<bool> = const { Cell::new(false) };
    /// Where this thread's last panic was raised.
    static PANICKED_AT: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Install (once per process) a panic hook that notes where a panic was
/// raised, stays silent on a thread that is shrinking and defers to the
/// previous hook everywhere else.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let at = info.location().map(|l| l.to_string()).unwrap_or_default();
            PANICKED_AT.with(|p| *p.borrow_mut() = at);
            if !QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// A panic payload as text.
fn message(payload: &(dyn std::any::Any + Send)) -> String {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => s.to_string(),
        (_, Some(s)) => s.clone(),
        _ => "(non-string panic payload)".to_string(),
    }
}

/// A failing run: its panic message and where it was raised, the choices
/// it used (each as used) and its collection elements.
struct Failure {
    msg: String,
    at: String,
    choices: Vec<u64>,
    elements: Vec<Range<usize>>,
}

/// Run `prop` once on `src`; what it was if it failed.
fn run<P: Fn(&mut Src)>(prop: &P, mut src: Src) -> Option<Failure> {
    let r = panic::catch_unwind(AssertUnwindSafe(|| prop(&mut src)));
    src.choices.truncate(src.at);
    let (choices, elements) = (src.choices, src.elements);
    r.err().map(|p| Failure { msg: message(&*p), at: PANICKED_AT.take(), choices, elements })
}

/// The failing sequence shrinks: `cur` is the smallest failure so far, and
/// a candidate replaces it only if it fails where `cur` failed (no slipping
/// to another bug) and what it used is smaller (shorter, or as long and
/// lexicographically smaller), so every step makes progress.
struct Shrinker<'p, P> {
    prop: &'p P,
    cur: Failure,
    attempts: u32,
}

impl<P: Fn(&mut Src)> Shrinker<'_, P> {
    fn try_candidate(&mut self, cand: Vec<u64>) -> bool {
        if self.attempts >= SHRINK_BUDGET {
            return false;
        }
        self.attempts += 1;
        QUIET.with(|q| q.set(true));
        let failed = run(self.prop, Src::new(cand, None));
        QUIET.with(|q| q.set(false));
        let cur = &self.cur.choices;
        match failed {
            Some(f) if f.at == self.cur.at && (f.choices.len(), &f.choices) < (cur.len(), cur) => {
                self.cur = f;
                true
            }
            _ => false,
        }
    }

    /// `cur`'s choices without those in `r`.
    fn without(&self, r: Range<usize>) -> Vec<u64> {
        [&self.cur.choices[..r.start], &self.cur.choices[r.end..]].concat()
    }

    /// Shrink passes — delete whole elements, then runs of 8, 4, 2 and 1
    /// choices, then lower each choice — until a whole round changes
    /// nothing or the budget is spent.
    fn shrink(&mut self) {
        let mut progress = true;
        while progress && self.attempts < SHRINK_BUDGET {
            progress = false;
            for e in (0..self.cur.elements.len()).rev() {
                if let Some(r) = self.cur.elements.get(e).cloned() {
                    progress |= self.try_candidate(self.without(r));
                }
            }
            for k in [8, 4, 2, 1] {
                let mut i = 0;
                while i + k <= self.cur.choices.len() {
                    if self.try_candidate(self.without(i..i + k)) {
                        progress = true;
                    } else {
                        i += 1;
                    }
                }
            }
            for i in 0..self.cur.choices.len() {
                progress |= self.lower(i);
            }
        }
    }

    /// `cur`'s choices with choice `i` set to `v`.
    fn with(&self, i: usize, v: u64) -> Vec<u64> {
        let mut cand = self.cur.choices.clone();
        cand[i] = v;
        cand
    }

    /// Lower choice `i`: straight to 0 if that still fails, else to the
    /// smallest failing value a binary search finds.
    fn lower(&mut self, i: usize) -> bool {
        let Some(&v) = self.cur.choices.get(i).filter(|&&v| v > 0) else { return false };
        if self.try_candidate(self.with(i, 0)) {
            return true;
        }
        let (mut lo, mut hi, mut moved) = (1, v, false);
        while lo < hi && i < self.cur.choices.len() {
            let mid = lo + (hi - lo) / 2;
            if self.try_candidate(self.with(i, mid)) {
                (hi, moved) = (mid, true);
            } else {
                lo = mid + 1;
            }
        }
        moved
    }
}

/// The name of the test running on this thread, and its property's seed.
fn test_and_seed() -> (String, u64) {
    let name = std::thread::current().name().unwrap_or("main").to_string();
    let fnv = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    });
    let extra = std::env::var(SEED_VAR).ok().and_then(|s| s.parse::<u64>().ok());
    (name, fnv ^ extra.unwrap_or(0))
}

/// Run `prop` on `cases` generated cases. A case that returns early is a
/// rejected case; it counts as run. On a panic, shrink the case and panic
/// with the original message, the shrunk case's message and a replay line.
pub fn check<P: Fn(&mut Src)>(cases: u32, prop: P) {
    install_quiet_hook();
    let (test, base) = test_and_seed();
    for case in 0..cases {
        let seed = base ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let Some(cur) = run(&prop, Src::new(Vec::new(), Some(SplitMix64::new(seed)))) else {
            continue;
        };
        let (orig, before) = (cur.msg.clone(), cur.choices.len());
        let mut s = Shrinker { prop: &prop, cur, attempts: 0 };
        s.shrink();
        let env = std::env::var(SEED_VAR).map(|v| format!("{SEED_VAR}={v} ")).unwrap_or_default();
        panic!(
            "property failed at case {case}: {orig}\n\
             shrunk from {before} to {} choices in {} runs: {}\n\
             replay: kite_verify::check::replay(&{:?}, <property>) | {env}cargo test -- --exact {test}",
            s.cur.choices.len(),
            s.attempts,
            s.cur.msg,
            s.cur.choices,
        );
    }
}

/// Run `prop` once on exactly `choices` (0 past their end) — the replay
/// a failing [`check`] prints.
pub fn replay(choices: &[u64], prop: impl FnOnce(&mut Src)) {
    prop(&mut Src::new(choices.to_vec(), None));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The panic message of running `f`.
    fn panic_of(f: impl FnOnce()) -> String {
        let p = panic::catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        message(&*p)
    }

    #[test]
    fn a_vector_with_an_element_of_100_or_more_shrinks_to_exactly_100() {
        let seen = RefCell::new(Vec::new());
        let prop = |src: &mut Src| {
            let v = src.vec(0..64, Src::u64);
            *seen.borrow_mut() = v.clone();
            assert!(v.iter().all(|&x| x < 100), "big element in {v:?}");
        };
        let msg = panic_of(|| check(256, prop));
        assert!(msg.contains(": big element in [100]\n"), "{msg}");
        // The replay line's choices reproduce the shrunk case.
        let line = msg.lines().find(|l| l.starts_with("replay: ")).expect("a replay line");
        let list = &line[line.find("(&[").expect("choices") + 3..line.find("], <").unwrap()];
        let choices: Vec<u64> = list.split(", ").map(|c| c.parse().unwrap()).collect();
        let replayed = panic_of(|| replay(&choices, prop));
        assert_eq!(replayed, "big element in [100]");
        assert_eq!(*seen.borrow(), vec![100]);
    }

    #[test]
    fn a_passing_property_runs_exactly_its_case_count() {
        let runs = Cell::new(0);
        check(37, |src| {
            runs.set(runs.get() + 1);
            assert!(src.below(10) < 10);
        });
        assert_eq!(runs.get(), 37);
    }

    #[test]
    fn a_rejected_case_still_counts_as_run() {
        let (runs, rejected) = (Cell::new(0), Cell::new(0));
        check(64, |src| {
            runs.set(runs.get() + 1);
            if src.bool() {
                rejected.set(rejected.get() + 1);
                return;
            }
            assert!(src.range(5..9) >= 5);
        });
        assert_eq!(runs.get(), 64);
        assert!((1..64).contains(&rejected.get()), "both kinds of case ran");
    }

    #[test]
    fn generators_stay_in_bounds_and_vec_lengths_cover_the_range() {
        let lens = RefCell::new(std::collections::BTreeSet::new());
        check(512, |src| {
            assert!(src.range(10..20) >= 10);
            assert!(src.pick(&[0, 3, 1]) != 0, "a zero weight is never picked");
            let v = src.vec(2..6, |s| s.below(3));
            assert!((2..6).contains(&v.len()) && v.iter().all(|&x| x < 3));
            lens.borrow_mut().insert(v.len());
        });
        assert_eq!(lens.into_inner().into_iter().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
    }
}
