//! The flusher paces group commit to the device's own commit time: the
//! window is `max(floor, K × recent commit time)`, a full staging buffer
//! commits at once, and requests cut any window short. These tests assert
//! on the WAL's own counters (`commit_busy_ns`, `commit_window_ns`,
//! `fsyncs`, the durable watermark), never on CPU time; every wait for the
//! flusher to *act* is a bounded poll.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kite_common::{Key, Lc, NodeId, Val};
use kite_kvs::DurabilitySink;
use kite_wal::{Wal, WalStats};

/// The documented window factor (`pacing::WINDOW_PER_COMMIT`).
const K: u64 = 3;
const DEFAULT_FLOOR_NS: u64 = 100_000;
/// A floor no test waits out: whatever becomes durable under it was
/// committed by a request or by the byte guard, not by the window.
const TEN_SECONDS_NS: u64 = 10_000_000_000;
const HOUR_NS: u64 = 3_600_000_000_000;
/// Generous bound for "promptly" — still a small fraction of the 10 s floor.
const PROMPT: Duration = Duration::from_secs(3);

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kite-wal-cp-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path, floor_ns: u64) -> Arc<Wal> {
    // Snapshot interval of an hour: no rotation interferes.
    Wal::open(dir, floor_ns, HOUR_NS, Box::new(|_| {})).unwrap()
}

fn record(wal: &Wal, i: u64) {
    wal.record(Key(i), Lc::new(i + 1, NodeId(0)), &Val::from_u64(i)).unwrap();
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < PROMPT, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One stretch of [`append_steadily`]: the counters around it, the time it
/// covers, and the furthest the appender started a record behind schedule.
struct Stretch {
    before: WalStats,
    after: WalStats,
    elapsed: Duration,
    behind: Duration,
}

/// Append one record every `gap` for `span` (a spin-paced trickle: sleeping
/// would add the kernel's timer slack to every gap).
fn append_steadily(wal: &Wal, gap: Duration, span: Duration) -> Stretch {
    let before = wal.stats();
    let start = Instant::now();
    let mut behind = Duration::ZERO;
    let mut i = 0u64;
    while start.elapsed() < span {
        behind = behind.max(start.elapsed().saturating_sub(gap * i as u32));
        record(wal, i);
        i += 1;
        let due = gap * i as u32;
        while start.elapsed() < due {
            std::hint::spin_loop();
        }
    }
    Stretch { before, after: wal.stats(), elapsed: start.elapsed(), behind }
}

/// The WAL's counter deltas over the part of a load during which the
/// appender kept its schedule.
#[derive(Default)]
struct OnSchedule {
    records: u64,
    fsyncs: u64,
    commit_busy_ns: u64,
    elapsed_ns: u64,
}

impl OnSchedule {
    fn records_per_fsync(&self) -> f64 {
        self.records as f64 / self.fsyncs.max(1) as f64
    }
}

/// [`append_steadily`] for `span` in 20 ms slices, keeping the slices in
/// which the appender never started a record a millisecond late. When this
/// spinning thread is descheduled (the suite's other test binaries share
/// the cores) so are the flusher and whoever drives it, mid-commit, and the
/// counters of that slice measure the scheduler, not the pacing policy.
fn append_on_schedule(wal: &Wal, gap: Duration, span: Duration) -> OnSchedule {
    const SLICE: Duration = Duration::from_millis(20);
    const BEHIND: Duration = Duration::from_millis(1);
    let mut kept = OnSchedule::default();
    for _ in 0..span.as_millis() / SLICE.as_millis() {
        let Stretch { before, after, elapsed, behind } = append_steadily(wal, gap, SLICE);
        if behind < BEHIND {
            kept.records += after.records - before.records;
            kept.fsyncs += after.fsyncs - before.fsyncs;
            kept.commit_busy_ns += after.commit_busy_ns - before.commit_busy_ns;
            kept.elapsed_ns += elapsed.as_nanos() as u64;
        }
    }
    kept
}

#[test]
fn sustained_appends_spend_a_quarter_of_the_time_committing_and_batch_twice_the_floor_only_run() {
    // A floor of 1 µs is below any device's commit time, so the window in
    // force is K × commit wherever this runs.
    const FLOOR_NS: u64 = 1_000;
    const GAP: Duration = Duration::from_micros(20);
    const SPAN: Duration = Duration::from_millis(400);
    let dir = tempdir("sustained");

    // The floor-only cadence on this directory: a commit as soon as the
    // last one is done, which is what back-to-back `flush()` calls force
    // (every flush cuts the window short).
    let floor_only = {
        let wal = open(&dir, FLOOR_NS);
        let stop = Arc::new(AtomicBool::new(false));
        let flusher = {
            let (wal, stop) = (Arc::clone(&wal), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    wal.flush();
                }
            })
        };
        let kept = append_on_schedule(&wal, GAP, SPAN);
        stop.store(true, Ordering::SeqCst);
        flusher.join().unwrap();
        wal.close();
        kept
    };
    let _ = std::fs::remove_dir_all(&dir);

    let wal = open(&dir, FLOOR_NS);
    // Let the pacer see a few commits before measuring.
    append_steadily(&wal, GAP, Duration::from_millis(50));
    let paced = append_on_schedule(&wal, GAP, SPAN);
    let window_ns = wal.stats().commit_window_ns;
    let commit_ns = window_ns / K;
    wal.close();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(window_ns >= FLOOR_NS);
    let on_schedule_ns = floor_only.elapsed_ns.min(paced.elapsed_ns);
    if on_schedule_ns < SPAN.as_nanos() as u64 / 2 {
        eprintln!(
            "appender on schedule for {} ms of {SPAN:?}: host too busy to measure pacing, skipped",
            on_schedule_ns / 1_000_000
        );
        return;
    }
    // One window asleep per commit in the device: 1/(K+1) = a quarter when
    // every commit takes the median, a third when the mean of a
    // heavy-tailed device runs half again above it.
    let duty = paced.commit_busy_ns as f64 / paced.elapsed_ns as f64;
    let (paced, floor_only) = (paced.records_per_fsync(), floor_only.records_per_fsync());
    assert!(
        duty <= 0.34,
        "commit duty cycle {duty:.2} (window {window_ns} ns, {paced:.1} records per fsync)"
    );
    // Batching can only show where records arrive faster than the device
    // commits; a device quicker than two record gaps commits them one by
    // one under either cadence (and the floor, not this policy, paces it).
    if commit_ns >= 2 * GAP.as_nanos() as u64 {
        assert!(
            paced >= 2.0 * floor_only,
            "{paced:.1} records per fsync paced vs {floor_only:.1} floor-only (commit ~{commit_ns} ns)"
        );
    } else {
        eprintln!("commit ~{commit_ns} ns: device too fast for the batching comparison, skipped");
    }
}

#[test]
fn flush_cuts_a_ten_second_window_short() {
    let dir = tempdir("flush");
    let wal = open(&dir, TEN_SECONDS_NS);
    record(&wal, 1);
    let asked = Instant::now();
    wal.flush();
    assert!(asked.elapsed() < PROMPT, "flush() took {:?} under a 10 s floor", asked.elapsed());
    assert_eq!(wal.stats().lag_bytes, 0);
    let asked = Instant::now();
    wal.close();
    assert!(asked.elapsed() < PROMPT, "close() took {:?} under a 10 s floor", asked.elapsed());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_burst_past_the_staging_buffer_commits_without_a_flush() {
    const STAGING_CAP: u64 = 64 << 10;
    let dir = tempdir("burst");
    let wal = open(&dir, TEN_SECONDS_NS);
    // Under the cap nothing moves: the 10 s window is in force.
    record(&wal, 0);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(wal.stats().durable_bytes, 0, "a lone record waits out the window");
    // Past it the backlog commits at once, with nobody asking.
    let mut i = 1;
    while wal.stats().appended_bytes <= STAGING_CAP {
        record(&wal, i);
        i += 1;
    }
    wait_for("the full staging buffer to commit", || wal.stats().durable_bytes >= STAGING_CAP);
    // What arrived after the swap is a new trickle under the same window.
    record(&wal, i);
    std::thread::sleep(Duration::from_millis(50));
    assert!(wal.stats().lag_bytes > 0, "the byte guard must not shorten the next window");
    wal.close();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_first_record_after_a_park_is_not_delayed_by_a_stale_window() {
    let dir = tempdir("park");
    let wal = open(&dir, DEFAULT_FLOOR_NS);
    // Load: the pacer learns this device's commit time.
    append_steadily(&wal, Duration::from_micros(20), Duration::from_millis(150));
    wal.flush();
    // Idle: the flusher parks.
    std::thread::sleep(Duration::from_millis(30));
    let commit_max_ns = wal.commit_latency().snapshot().quantile(1.0);
    let s = wal.stats();
    assert!(
        s.commit_window_ns <= DEFAULT_FLOOR_NS.max(K * commit_max_ns),
        "window {} ns with no commit slower than {commit_max_ns} ns",
        s.commit_window_ns
    );
    let staged = Instant::now();
    record(&wal, 1 << 40);
    while wal.stats().lag_bytes > 0 {
        assert!(staged.elapsed() < Duration::from_secs(10), "first record after a park never committed");
        std::thread::sleep(Duration::from_micros(200));
    }
    let took = staged.elapsed();
    // The bound scales with the commit time observed, as the pacer's window
    // does: the slowest commit so far *including the one that just carried
    // the record* — on a box busy enough to slow the disk to 8 ms a commit,
    // the commit under test is the slow one. One window, the commit itself
    // and the flusher's wake-up, each allowed a few commit times (never
    // less than 4 ms: a fast disk does not make the scheduler fast).
    let commit_ns = wal.commit_latency().snapshot().quantile(1.0).max(4_000_000);
    let bound = Duration::from_nanos(s.commit_window_ns + 12 * commit_ns);
    assert!(
        took < bound,
        "first record after a park was staged for {took:?} (window {} ns, commits <= {commit_ns} ns)",
        s.commit_window_ns
    );
    wal.close();
    let _ = std::fs::remove_dir_all(&dir);
}
