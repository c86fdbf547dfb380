//! The flusher commits once per window at most: the window is the one
//! `Wal::open` was given (a node's anti-entropy sweep interval), a full
//! staging buffer commits at once, and requests cut any window short.
//! These tests assert on the WAL's own counters (`fsyncs`, the durable
//! watermark) and on bounds that hold however slow the host or its disk:
//! a slow host only makes fewer commits, and every wait for the flusher to
//! *act* is a bounded poll with a generous deadline.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kite_common::{Key, Lc, NodeId, Val};
use kite_kvs::DurabilitySink;
use kite_wal::Wal;

/// The daemon's window: `ClusterConfig`'s default sweep interval.
const SWEEP_NS: u64 = 5_000_000;
/// A window no test waits out: whatever becomes durable under it was
/// committed by a request or by the byte guard, not by the window.
const TEN_SECONDS_NS: u64 = 10_000_000_000;
const HOUR_NS: u64 = 3_600_000_000_000;
const STAGING_CAP: u64 = 64 << 10;
/// Generous bound for "promptly" — still a small fraction of the 10 s window.
const PROMPT: Duration = Duration::from_secs(3);

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kite-wal-cp-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path, window_ns: u64) -> Arc<Wal> {
    // Snapshot interval of an hour: no rotation interferes.
    Wal::open(dir, window_ns, HOUR_NS, Box::new(|_| {})).unwrap()
}

fn record(wal: &Wal, i: u64) {
    wal.record(Key(i), Lc::new(i + 1, NodeId(0)), &Val::from_u64(i)).unwrap();
}

fn wait_for(what: &str, deadline: Duration, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn sustained_appends_commit_at_most_once_per_window_plus_the_byte_guard() {
    // One record every 20 µs for 400 ms (a spin-paced trickle: sleeping
    // would add the kernel's timer slack to every gap). A descheduled
    // appender only stretches the span it is measured over.
    const GAP: Duration = Duration::from_micros(20);
    const SPAN: Duration = Duration::from_millis(400);
    let dir = tempdir("sustained");
    let wal = open(&dir, SWEEP_NS);
    let before = wal.stats();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < SPAN {
        record(&wal, i);
        i += 1;
        let due = GAP * i as u32;
        while start.elapsed() < due {
            std::hint::spin_loop();
        }
    }
    let (after, span) = (wal.stats(), start.elapsed());
    wal.flush();
    assert_eq!(wal.stats().lag_bytes, 0);
    wal.close();
    let _ = std::fs::remove_dir_all(&dir);

    // Every commit but the one in flight at the start sleeps out a whole
    // window first unless the byte guard cut it short; the other edge is
    // the commit in flight when the span ends.
    let commits = after.fsyncs - before.fsyncs;
    let bytes = after.appended_bytes - before.appended_bytes;
    let bound = span.as_nanos() as u64 / SWEEP_NS + bytes / STAGING_CAP + 2;
    assert!(
        commits <= bound,
        "{commits} commits in {span:?} for {i} records ({bytes} B): bound {bound}"
    );
}

#[test]
fn flush_cuts_a_ten_second_window_short() {
    let dir = tempdir("flush");
    let wal = open(&dir, TEN_SECONDS_NS);
    record(&wal, 1);
    let asked = Instant::now();
    wal.flush();
    assert!(asked.elapsed() < PROMPT, "flush() took {:?} under a 10 s window", asked.elapsed());
    assert_eq!(wal.stats().lag_bytes, 0);
    let asked = Instant::now();
    wal.close();
    assert!(asked.elapsed() < PROMPT, "close() took {:?} under a 10 s window", asked.elapsed());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_burst_past_the_staging_buffer_commits_without_a_flush() {
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
    wait_for("the full staging buffer to commit", PROMPT, || {
        wal.stats().durable_bytes >= STAGING_CAP
    });
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
    let wal = open(&dir, SWEEP_NS);
    // Load, then idle: the flusher parks.
    for i in 0..2_000 {
        record(&wal, i);
    }
    wal.flush();
    std::thread::sleep(Duration::from_millis(30));
    // The record that ends the park becomes durable unprompted, one window
    // and one commit later; ten seconds is the deadline of "eventually",
    // two thousand windows, so no host is too slow for it.
    record(&wal, 1 << 40);
    wait_for("the first record after a park to commit", Duration::from_secs(10), || {
        wal.stats().lag_bytes == 0
    });
    wal.close();
    let _ = std::fs::remove_dir_all(&dir);
}
