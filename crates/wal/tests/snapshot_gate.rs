//! A rotation waits for the log to outgrow the last snapshot: once the
//! snapshot interval has passed, the flusher re-dumps the store only when
//! the log appended since the last rotation holds at least as many bytes
//! as that rotation's snapshot. `snapshot_now()` and the shutdown snapshot
//! stay unconditional. The assertions are on the WAL's own counters; every
//! wait for the flusher to act is a bounded poll.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kite_common::{Key, Lc, NodeId, Val};
use kite_kvs::{DurabilitySink, Store};
use kite_wal::{frame, Wal};

const INTERVAL: Duration = Duration::from_millis(40);
const PROMPT: Duration = Duration::from_secs(10);
/// Entries in the store the snapshots dump.
const N: u64 = 200;
/// Framed bytes of one 8-byte-valued record, in the log and the snapshot alike.
const FRAME: u64 = (frame::FRAME_HEADER_LEN + frame::PAYLOAD_FIXED + 8) as u64;

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kite-wal-sg-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < PROMPT, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_rotation_waits_until_the_log_outgrows_the_last_snapshot() {
    let dir = tempdir("gate");
    let store = Arc::new(Store::new(4 * N as usize));
    for k in 0..N {
        store.apply_max(Key(k), &Val::from_u64(k), Lc::new(1, NodeId(0)));
    }
    let src = Arc::clone(&store);
    let wal = Wal::open(
        &dir,
        100_000,
        INTERVAL.as_nanos() as u64,
        Box::new(move |f| src.for_each_entry(|k, lc, v| f(k, lc, v))),
    )
    .unwrap();
    wal.snapshot_now();
    let s = wal.stats();
    assert_eq!((s.snapshots, s.snapshot_entries), (1, N));

    // Records the store already holds, so the snapshot stays N entries.
    let mut next = 0u64;
    let mut append = |count: u64| {
        for _ in 0..count {
            let k = next % N;
            wal.record(Key(k), Lc::new(2 + next / N, NodeId(0)), &Val::from_u64(k)).unwrap();
            next += 1;
        }
    };

    // Just short of N frames' worth, spread over three intervals: every
    // interval passes with a stale snapshot, and none re-dumps the store.
    for _ in 0..3 {
        append((N - 1) / 3);
        std::thread::sleep(INTERVAL);
    }
    wal.flush();
    std::thread::sleep(INTERVAL * 2);
    let s = wal.stats();
    assert!(s.appended_bytes < N * FRAME);
    assert_eq!(
        s.snapshots,
        1,
        "{} log bytes re-dumped a {}-byte snapshot",
        s.appended_bytes,
        N * FRAME
    );

    // The frames that make it N frames' worth are what the gate waits for.
    append(N - (N - 1) / 3 * 3);
    assert_eq!(wal.stats().appended_bytes, N * FRAME);
    wait_for("the rotation the outgrown log is due", || wal.stats().snapshots == 2);
    assert_eq!(wal.stats().lag_bytes, 0, "rotation seals the staged records");

    // A request is not gated: a log of one record is enough for it, and
    // for the shutdown snapshot.
    append(1);
    wal.snapshot_now();
    assert_eq!(wal.stats().snapshots, 3);
    append(1);
    wal.shutdown();
    assert_eq!(wal.stats().snapshots, 4);
    let _ = std::fs::remove_dir_all(&dir);
}
