//! Crash recovery: newest complete snapshot + segment-tail replay.
//!
//! Recovery is a pure fold over the durable files, replayed through the
//! store's ordinary LLC-max mutator (`apply_max`), which is what makes it
//! unconditionally safe:
//!
//! * **idempotent** — a record applied twice (duplicated group-commit
//!   batch, segment surviving next to the snapshot that covers it) is a
//!   no-op the second time (`lc > stored` fails on equality);
//! * **order-insensitive** — racing appenders may stage records out of
//!   per-key order; LLC-max converges to the highest clock regardless;
//! * **tear-tolerant** — a torn or corrupt frame truncates that file's
//!   replay at the tear (the decoder [`crate::frame::scan`] also reads
//!   through), costing only the unflushed suffix;
//! * **streamed** — each file is read one bounded buffer at a time and
//!   every record applied as it is decoded, so replay memory is one
//!   buffer, not the file.
//!
//! Applying through the normal mutators also rebuilds the Merkle leaf
//! lattice for free: by the time recovery returns, the store's summaries
//! already describe the recovered state, and the first anti-entropy sweep
//! heals exactly the downtime delta.
//!
//! Snapshot selection: snapshots are written to a temp file and renamed,
//! and must end in a valid end marker; the newest `complete` one wins and
//! every segment whose `seq` is ≥ the snapshot's is replayed on top, in
//! sequence order. Segments below the snapshot seq (deleted at rotation,
//! but a crash can leave them behind) are fully covered by the snapshot
//! and skipped.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

use kite_common::{Key, Lc, Val};
use kite_kvs::Store;

use crate::frame;

/// What recovery found and did — surfaced in the node's boot line so the
/// e2e harness can assert "replayed the tail, not the world".
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryStats {
    /// Sequence of the snapshot restored, if any.
    pub snapshot_seq: Option<u64>,
    /// Entries loaded from the snapshot.
    pub snapshot_entries: u64,
    /// Records replayed from segment tails.
    pub replayed_records: u64,
    /// Segments scanned.
    pub segments: u64,
    /// At least one file ended in a torn/corrupt tail that was truncated.
    pub truncated: bool,
}

/// Parse `wal-<seq>.log` / `snap-<seq>.snap` style names.
fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

/// List `(seq, path)` for every file in `dir` matching `prefix`/`suffix`,
/// sorted by sequence.
pub(crate) fn list_files(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(|n| parse_seq(n, prefix, suffix)) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// Path of segment `seq` under `dir`.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:010}.log"))
}

/// Path of snapshot `seq` under `dir`.
pub fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:010}.snap"))
}

/// Recover durable state from `dir` into `store` (normally fresh/empty,
/// though LLC-max makes any starting state safe). Call **before**
/// attaching the WAL sink — a sink that observed its own replay would
/// double every record. Missing or empty directories recover nothing and
/// are not an error (first boot).
///
/// Every file streams through [`frame::READ_BUF`] bytes at a time, each
/// record applied as it is decoded: replay memory is one buffer, whatever
/// the size of the snapshot or the tail.
pub fn recover_into(dir: &Path, store: &Store) -> io::Result<RecoveryStats> {
    let mut stats = RecoveryStats::default();
    let apply = |_: u64, key: Key, lc: Lc, value: &[u8]| {
        store.apply_max(key, &Val::from_bytes(value), lc);
    };

    // Newest complete snapshot wins; incomplete or alien files are skipped
    // (a torn snapshot is recorded as a truncation and its seq never
    // trusted). A snapshot's records are applied before its end marker is
    // read: each is CRC-vouched state this node held, which LLC-max makes
    // safe to apply in any order, so a torn one's prefix only adds what an
    // older snapshot and the segments would restore anyway.
    for (seq, path) in list_files(dir, "snap-", ".snap")?.into_iter().rev() {
        match frame::stream(File::open(&path)?, frame::SNAP_MAGIC, apply)? {
            Some(tally) if tally.complete && tally.seq == seq => {
                stats.snapshot_seq = Some(seq);
                stats.snapshot_entries = tally.records;
                break;
            }
            _ => stats.truncated = true,
        }
    }

    // Replay every segment at or past the snapshot, in sequence order.
    let floor = stats.snapshot_seq.unwrap_or(0);
    for (seq, path) in list_files(dir, "wal-", ".log")? {
        if seq < floor {
            continue;
        }
        stats.segments += 1;
        if let Some(tally) = frame::stream(File::open(&path)?, frame::SEG_MAGIC, apply)? {
            stats.truncated |= tally.truncated;
            stats.replayed_records += tally.records;
        } else {
            stats.truncated = true;
        }
    }
    Ok(stats)
}
