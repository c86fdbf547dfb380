//! Replay streams: `recover_into` reads each file through one bounded
//! buffer and applies every record as it is decoded, so the memory a
//! restart needs does not grow with the snapshot or the log. A counting
//! global allocator measures the bytes recovery allocates.
//!
//! The armed flag is thread-local (as in `crates/lint/tests/alloc_guard.rs`):
//! the libtest harness allocates on its own threads in this process, and
//! only the recovering thread is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use kite_common::{Key, Lc, NodeId, Val};
use kite_kvs::Store;
use kite_wal::{frame, recover_into, segment_path, snapshot_path};

/// Counts the bytes requested while [`ARMED`]; allocation itself is
/// delegated untouched to [`System`].
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `const`-initialized `Cell<bool>`: no destructor, so reading it from
    /// inside the allocator never recurses into allocation.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method delegates directly to `System`, which upholds the
// GlobalAlloc contract; the only addition is a counter bump with no effect
// on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout contract as `System::alloc` (delegated verbatim).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // SAFETY: same pointer/layout contract as `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same contract as `System::realloc` (delegated verbatim). A
    // grown block counts its whole new size, as a fresh allocation would.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const KEYS: u64 = 50_000;
const LOG_RECORDS: u64 = 100_000;
const BOUND: u64 = 1 << 20;

/// Write the file at `path`: a header, one frame per `(key, version)`
/// and, for a snapshot, its end marker.
fn write_file(path: &Path, magic: &[u8; 8], records: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut w = BufWriter::new(File::create(path).unwrap());
    w.write_all(&frame::file_header(magic, 1)).unwrap();
    let mut n = 0u64;
    let mut buf = [0u8; frame::MAX_FRAME];
    for (key, version) in records {
        let len = frame::encode_into(
            &mut buf,
            Key(key),
            Lc::new(version, NodeId(1)),
            &Val::from_u64(key),
        );
        w.write_all(&buf[..len]).unwrap();
        n += 1;
    }
    if magic == frame::SNAP_MAGIC {
        let mut marker = Vec::new();
        frame::append_end_marker(&mut marker, n as u32);
        w.write_all(&marker).unwrap();
    }
    w.into_inner().unwrap().sync_all().unwrap();
    n
}

#[test]
fn replay_of_a_snapshot_and_a_long_segment_allocates_under_a_mebibyte() {
    let dir = std::env::temp_dir().join(format!("kite-wal-rm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    write_file(&snapshot_path(&dir, 1), frame::SNAP_MAGIC, (0..KEYS).map(|k| (k, 1)));
    // Every key rewritten twice over, the last version winning.
    write_file(
        &segment_path(&dir, 1),
        frame::SEG_MAGIC,
        (0..LOG_RECORDS).map(|i| (i % KEYS, 2 + i / KEYS)),
    );
    let on_disk: u64 =
        std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().metadata().unwrap().len()).sum();

    let store = Store::new(KEYS as usize);
    let before = BYTES.load(Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    let stats = recover_into(&dir, &store).unwrap();
    ARMED.with(|a| a.set(false));
    let allocated = BYTES.load(Ordering::SeqCst) - before;
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(stats.snapshot_seq, Some(1));
    assert_eq!((stats.snapshot_entries, stats.replayed_records), (KEYS, LOG_RECORDS));
    assert!(!stats.truncated);
    assert_eq!(store.len(), KEYS as usize);
    let last = LOG_RECORDS - 1;
    assert_eq!(store.view(Key(last % KEYS)).lc, Lc::new(2 + last / KEYS, NodeId(1)));
    assert!(
        allocated < BOUND,
        "recovering {on_disk} bytes of snapshot and log allocated {allocated} bytes"
    );
}
