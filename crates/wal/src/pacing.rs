//! Group-commit pacing: how long the flusher lets records accumulate
//! before it pays for the next commit.
//!
//! A commit costs the device's write + `fdatasync` time whatever the batch
//! size, so a window shorter than that time buys batches of one or two
//! records and a flusher that lives in the device. [`CommitPacer`] sizes
//! the window from the commit times the flusher itself measures: it is a
//! pure function of those samples and a configured floor, owned by the
//! flusher thread, with no clock and no disk of its own.

use std::time::Duration;

/// Windows per commit. The flusher alternates one window asleep with one
/// commit in the device, so under sustained load it spends
/// `1 / (WINDOW_PER_COMMIT + 1)` of its time — a quarter — committing, and
/// each commit carries the records of four commit times instead of one.
pub(crate) const WINDOW_PER_COMMIT: u64 = 3;

/// Commit times remembered. The estimate is their median, which one
/// stalled commit cannot move and two of five can only nudge to the next
/// sample; a device that really slowed down owns the median after three.
const SAMPLES: usize = 5;

/// The group-commit window policy: `max(floor, WINDOW_PER_COMMIT × median
/// of the last SAMPLES commit times)`.
pub(crate) struct CommitPacer {
    floor_ns: u64,
    recent: [u64; SAMPLES],
    /// Slot the next sample overwrites (the oldest once `filled == SAMPLES`).
    next: usize,
    filled: usize,
    /// Median of `recent[..filled]` (the lower one while `filled` is even);
    /// zero until the first sample.
    commit_ns: u64,
}

impl CommitPacer {
    /// A pacer that never goes below `floor_ns` (itself at least 1 ns, so
    /// a window is never zero).
    pub(crate) fn new(floor_ns: u64) -> CommitPacer {
        CommitPacer {
            floor_ns: floor_ns.max(1),
            recent: [0; SAMPLES],
            next: 0,
            filled: 0,
            commit_ns: 0,
        }
    }

    /// Feed one commit's write + `fdatasync` wall time.
    pub(crate) fn observe(&mut self, commit_ns: u64) {
        self.recent[self.next] = commit_ns;
        self.next = (self.next + 1) % SAMPLES;
        self.filled = (self.filled + 1).min(SAMPLES);
        let mut sorted = self.recent;
        let sorted = &mut sorted[..self.filled];
        sorted.sort_unstable();
        self.commit_ns = sorted[(self.filled - 1) / 2];
    }

    /// The window to sleep out before the next commit.
    pub(crate) fn window(&self) -> Duration {
        Duration::from_nanos(self.floor_ns.max(self.commit_ns.saturating_mul(WINDOW_PER_COMMIT)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLOOR: u64 = 100_000;

    fn window_ns(p: &CommitPacer) -> u64 {
        p.window().as_nanos() as u64
    }

    #[test]
    fn floor_holds_before_any_sample_and_on_a_fast_device() {
        let mut p = CommitPacer::new(FLOOR);
        assert_eq!(window_ns(&p), FLOOR);
        for _ in 0..20 {
            p.observe(20_000); // 3 × 20 µs < 100 µs
            assert_eq!(window_ns(&p), FLOOR);
        }
    }

    #[test]
    fn window_tracks_k_times_the_commit_time() {
        let mut p = CommitPacer::new(FLOOR);
        for _ in 0..SAMPLES {
            p.observe(300_000);
        }
        assert_eq!(window_ns(&p), WINDOW_PER_COMMIT * 300_000);
        // The device slows down for good: the window follows once the slow
        // commits are the majority of the memory, and follows it back.
        for _ in 0..3 {
            p.observe(900_000);
        }
        assert_eq!(window_ns(&p), WINDOW_PER_COMMIT * 900_000);
        for _ in 0..3 {
            p.observe(300_000);
        }
        assert_eq!(window_ns(&p), WINDOW_PER_COMMIT * 300_000);
    }

    #[test]
    fn one_stalled_commit_does_not_pin_the_window() {
        // In steady state a 100× outlier does not move the window at all.
        let mut p = CommitPacer::new(FLOOR);
        for _ in 0..SAMPLES {
            p.observe(300_000);
        }
        p.observe(30_000_000);
        assert_eq!(window_ns(&p), WINDOW_PER_COMMIT * 300_000);
        // As the very first sample it is all the pacer knows; the next
        // ordinary commit outvotes it.
        let mut p = CommitPacer::new(FLOOR);
        p.observe(30_000_000);
        assert_eq!(window_ns(&p), WINDOW_PER_COMMIT * 30_000_000);
        p.observe(300_000);
        assert_eq!(window_ns(&p), WINDOW_PER_COMMIT * 300_000);
    }

    #[test]
    fn window_is_never_zero_and_never_overflows() {
        let mut p = CommitPacer::new(0);
        assert!(p.window() > Duration::ZERO);
        p.observe(0);
        assert!(p.window() > Duration::ZERO);
        for _ in 0..SAMPLES {
            p.observe(u64::MAX);
        }
        assert_eq!(window_ns(&p), u64::MAX);
    }
}
