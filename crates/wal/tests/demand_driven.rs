//! The flusher is demand-driven: it runs when something is staged or
//! requested and is parked otherwise. These tests assert on the WAL's own
//! counters (`flusher_wakes`, `snapshots`), never on CPU time; the sleeps
//! are the idle intervals under test, and every wait for the flusher to
//! *act* is a bounded poll.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kite_common::{Key, Lc, NodeId, Val};
use kite_kvs::DurabilitySink;
use kite_wal::Wal;

const GROUP_COMMIT_NS: u64 = 100_000;
const INTERVAL: Duration = Duration::from_millis(40);
/// Generous bound for "promptly": a parked flusher that missed its signal
/// would sit out at least one whole snapshot interval of the hang tests
/// (an hour), not this.
const PROMPT: Duration = Duration::from_secs(10);

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kite-wal-dd-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path, interval: Duration) -> Arc<Wal> {
    Wal::open(dir, GROUP_COMMIT_NS, interval.as_nanos() as u64, Box::new(|_| {})).unwrap()
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

/// Run `f` on a helper thread and fail if it has not returned within
/// [`PROMPT`] (a hang must fail the test, not wedge it).
fn returns_promptly(what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let h = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(PROMPT).unwrap_or_else(|_| panic!("{what} did not return within {PROMPT:?}"));
    h.join().unwrap();
}

#[test]
fn idle_intervals_take_no_snapshot_and_one_record_rearms_it() {
    let dir = tempdir("idle");
    let wal = open(&dir, INTERVAL);

    // A store with history: one record, rotated into a snapshot.
    record(&wal, 1);
    wal.snapshot_now();
    assert_eq!(wal.stats().snapshots, 1);

    // Three idle intervals: the snapshot on disk still covers everything,
    // so the flusher neither rewrites it nor spins waiting to.
    let before = wal.stats();
    std::thread::sleep(INTERVAL * 3);
    let after = wal.stats();
    assert_eq!(after.snapshots, 1, "an idle interval must not re-dump an unchanged store");
    assert_eq!(after.fsyncs, before.fsyncs);
    assert!(
        after.flusher_wakes - before.flusher_wakes <= 5,
        "idle flusher woke {} times in three intervals",
        after.flusher_wakes - before.flusher_wakes
    );

    // One record makes the snapshot stale: the next interval rotates.
    record(&wal, 2);
    wait_for("the periodic snapshot after a record", || wal.stats().snapshots == 2);
    assert_eq!(wal.stats().lag_bytes, 0, "rotation seals the staged record");

    // ... and then the node is idle again.
    std::thread::sleep(INTERVAL * 3);
    assert_eq!(wal.stats().snapshots, 2);

    // shutdown's final snapshot is unconditional.
    wal.shutdown();
    assert_eq!(wal.stats().snapshots, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_parked_flusher_answers_records_flushes_and_stops() {
    // Snapshot interval of an hour: the only things that can end a park
    // here are the signals under test.
    let hour = Duration::from_secs(3600);
    for stop in ["close", "shutdown"] {
        let dir = tempdir(stop);
        let wal = open(&dir, hour);
        // Let the flusher reach its park (nothing to wait *on* — parking is
        // the absence of activity — so allow it a few windows).
        std::thread::sleep(Duration::from_millis(20));
        let parked_at = wal.stats().flusher_wakes;

        // flush() with nothing staged returns at once.
        let w = Arc::clone(&wal);
        returns_promptly("flush() on a parked flusher", move || w.flush());

        // The first record after idleness wakes it (the idle→busy edge):
        // durability follows within a window + an fsync, unprompted.
        record(&wal, 7);
        wait_for("the group commit of the first record", || wal.stats().lag_bytes == 0);
        assert_eq!(wal.stats().flush_batches, 1);
        assert!(wal.stats().flusher_wakes > parked_at);

        // flush() right behind a record is the request path.
        record(&wal, 8);
        let w = Arc::clone(&wal);
        returns_promptly("flush() behind a record", move || w.flush());
        assert_eq!(wal.stats().lag_bytes, 0);

        // Idle again; stopping must wake the parked flusher and join it.
        std::thread::sleep(Duration::from_millis(20));
        let w = Arc::clone(&wal);
        let shutdown = stop == "shutdown";
        returns_promptly(stop, move || if shutdown { w.shutdown() } else { w.close() });
        assert_eq!(wal.stats().snapshots, u64::from(shutdown));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sustained_appends_are_group_committed_without_a_wake_per_record() {
    let dir = tempdir("sustained");
    let wal = open(&dir, Duration::from_secs(3600));
    // Appends arriving faster than the commit cycle: the flusher goes from
    // one window straight into the next and is (almost) never found parked.
    let n = 20_000u64;
    for i in 0..n {
        record(&wal, i);
    }
    wal.flush();
    let s = wal.stats();
    assert_eq!(s.records, n);
    assert_eq!(s.lag_bytes, 0);
    assert!(s.flush_batches >= 1 && s.flush_batches < n / 10, "batches={}", s.flush_batches);
    assert!(s.flusher_wakes < n / 10, "flusher woke {} times for {n} records", s.flusher_wakes);
    wal.close();
    let _ = std::fs::remove_dir_all(&dir);
}
