//! # kite-wal
//!
//! Per-replica crash durability: a group-committed, CRC-framed
//! write-ahead log with periodic log-truncating snapshots, feeding the
//! snapshot-plus-tail-replay restart path.
//!
//! The store calls [`kite_kvs::DurabilitySink::record`] from every
//! stamp-transitioning apply — the same choke points that feed the Merkle
//! leaf lattice. The sink implementation here does the minimum possible on
//! the protocol thread: encode one frame into a stack buffer and append it
//! to a mutex-guarded **staging buffer**. Protocol threads never block on
//! I/O; a dedicated, **demand-driven** flusher thread makes the staged
//! bytes durable. One of its commit cycles, with every place it sleeps:
//!
//! 1. **Park.** Nothing staged: the flusher waits on a condvar, bounded
//!    only by the next snapshot's due time, and an idle node's flusher does
//!    not run. The append that ends the idleness — it holds the staging
//!    mutex anyway — signals it, once per idle→busy edge.
//! 2. **Window.** Something staged: the flusher sleeps out one group-commit
//!    window, the `commit_window_ns` [`Wal::open`] was given — a node hands
//!    it its anti-entropy sweep interval (5 ms by default). The sweep
//!    interval is the horizon durability needs: acks leave before group
//!    commit, and a record staged but not yet durable when the process dies
//!    is re-fetched by the first sweep after the restart, from the replicas
//!    that acked it. So a commit carries a window's records whatever the
//!    device, and the flusher's cost follows the records it persists, not
//!    the clock. Three things cut a window short: `flush()`,
//!    `snapshot_now()` and stop, and a staged backlog of one staging buffer
//!    (64 KiB) — the append that fills it signals — so time paces a trickle
//!    and bytes pace a burst.
//! 3. **Commit.** Swap the staging buffer against a recycled spare (two
//!    buffers ping-pong forever — steady-state appends and flushes are
//!    allocation-free once the buffers have grown to the working set),
//!    write the batch to the active segment and `fdatasync` it once — the
//!    third sleep, in the device. The wall time goes to `commit_latency`
//!    and `commit_busy_ns`. `flush()`/`snapshot_now()` callers are woken
//!    only if there are any: a commit with nobody waiting makes no wake-up
//!    syscall.
//!
//! Records that arrive during 2 and 3 start the next window with no signal
//! at all, so sustained load makes **zero** signals per record. In any
//! stretch `Δt` the flusher commits at most
//! `Δt / window + Δbytes / 64 KiB + 1` times, plus two fsyncs per
//! rotation. The durability lag is bounded by one window + one commit in
//! time (a record staged while a commit is in the device also waits out
//! the rest of that commit) and by one staging buffer plus one commit's
//! arrivals in bytes; lag and the commit duty cycle are reported in
//! [`Wal::stats`].
//!
//! The flusher **rotates** once `snapshot_interval_ns` has passed since the
//! last rotation *and* the log appended since then holds at least as many
//! bytes as that rotation's snapshot, and on [`Wal::snapshot_now`] and
//! [`Wal::shutdown`] unconditionally: seal the active segment, open
//! segment `S+1`, dump the whole store to `snap-<S+1>.tmp`, fsync, rename
//! to `.snap`, then delete every older segment and snapshot. The size gate
//! makes a snapshot cost no more bytes than the log it retires (write
//! amplification ≤ 2, and an idle node never re-dumps an unchanged store),
//! and a restart replays one snapshot plus a log no longer than the larger
//! of that snapshot and one interval of appends — streamed, so replay
//! memory is one read buffer ([`recover`]). The ordering argument: a record
//! staged before the rotation swap was *applied to the store before the
//! dump started* (apply happens-before stage), so the snapshot covers
//! every sealed segment; records staged after the swap land in segment
//! `S+1`, which recovery replays on top. Either way nothing durable is
//! lost, and duplicates are free because replay is idempotent under
//! LLC-max (see [`recover`]).
//!
//! On-disk formats, byte budgets and torn-tail semantics live in
//! [`frame`]; the restart path in [`recover`].

#![warn(missing_docs)]

pub mod frame;
pub mod recover;

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kite_common::{Key, Lc, Val};
use kite_kvs::{DurabilitySink, SinkError};

pub use recover::{recover_into, segment_path, snapshot_path, RecoveryStats};

/// Store-iteration callback: the WAL asks its owner to walk every written
/// entry when dumping a snapshot (a boxed closure over
/// `Store::for_each_entry`, erased so this crate needs no handle to the
/// node's shared state).
pub type SnapshotSource = Box<dyn Fn(&mut dyn FnMut(Key, Lc, &Val)) + Send + Sync>;

/// Initial capacity of each of the two staging buffers, and the staged
/// backlog that commits at once: a window paces a trickle, this paces a
/// burst, so the lag is bounded in bytes as well as in time.
const STAGING_CAP: usize = 1 << 16;

/// Staging state shared between appenders and the flusher.
struct Staging {
    /// Frames staged since the last swap; recycled, never shrunk.
    buf: Vec<u8>,
    /// Total bytes ever staged (monotone; `durable` chases it).
    appended: u64,
    /// Total staged bytes that have been written **and fsynced**.
    durable: u64,
    /// Active segment sequence number.
    seq: u64,
    /// The flusher is parked on `wake` with nothing staged; the append
    /// that finds this set clears it and signals.
    parked: bool,
    /// `flush()`/`snapshot_now()` callers blocked on `done`: a commit with
    /// nobody waiting skips the notify (a futex syscall even when idle).
    waiters: u32,
}

/// Monotone counters exported to the watchdog dump.
#[derive(Default)]
struct Counters {
    records: AtomicU64,
    flush_batches: AtomicU64,
    fsyncs: AtomicU64,
    snapshots: AtomicU64,
    snapshot_entries: AtomicU64,
    flusher_wakes: AtomicU64,
    commit_busy_ns: AtomicU64,
}

/// A point-in-time view of the WAL's health, for logs and the watchdog
/// report. `lag_bytes` is the staged-but-not-yet-durable backlog — bounded
/// by one group-commit window plus one commit of traffic, and by one
/// staging buffer plus one commit of it, when the flusher is healthy.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalStats {
    /// Records appended by the store sink.
    pub records: u64,
    /// Bytes staged.
    pub appended_bytes: u64,
    /// Bytes written + fsynced.
    pub durable_bytes: u64,
    /// `appended_bytes - durable_bytes`.
    pub lag_bytes: u64,
    /// Group-commit batches written.
    pub flush_batches: u64,
    /// `fsync` calls issued.
    pub fsyncs: u64,
    /// Snapshots (= log truncations) completed.
    pub snapshots: u64,
    /// Entries in the most recent snapshot.
    pub snapshot_entries: u64,
    /// Times the flusher thread returned from a condvar wait — once per
    /// group-commit window under load, flat on an idle node.
    pub flusher_wakes: u64,
    /// Σ write + `fdatasync` wall time of every group commit — the
    /// flusher's time in the device, so Δ`commit_busy_ns` ÷ Δt between two
    /// readings is its commit duty cycle.
    pub commit_busy_ns: u64,
}

impl WalStats {
    /// `(name, reading)` of every scrape key (`wal_<name>`), all from this
    /// one snapshot. `snapshot_entries` shows in [`Wal::describe`] only.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("records", self.records),
            ("appended_bytes", self.appended_bytes),
            ("durable_bytes", self.durable_bytes),
            ("lag_bytes", self.lag_bytes),
            ("flush_batches", self.flush_batches),
            ("fsyncs", self.fsyncs),
            ("snapshots", self.snapshots),
            ("flusher_wakes", self.flusher_wakes),
            ("commit_busy_ns", self.commit_busy_ns),
        ]
    }
}

/// The write-ahead log. Construct with [`Wal::open`] (after
/// [`recover_into`]), attach to the store with `Store::attach_sink`, and
/// call [`Wal::shutdown`] for a clean exit (final flush + snapshot, so the
/// next boot replays nothing).
pub struct Wal {
    dir: PathBuf,
    commit_window: Duration,
    snapshot_interval: Duration,
    inner: Mutex<Staging>,
    /// Wakes the flusher: flush/snapshot/stop requests, and the append
    /// that finds it parked (one signal per idle→busy edge — waking per
    /// record would defeat group commit).
    wake: Condvar,
    /// Signals appender-side waiters that `durable`/`snapshots` advanced.
    done: Condvar,
    stop: AtomicBool,
    flush_req: AtomicBool,
    snap_req: AtomicBool,
    skip_final_snapshot: AtomicBool,
    counters: Counters,
    /// Group-commit latency (write + fsync wall time per non-empty batch),
    /// scraped live via [`Wal::commit_latency`].
    commit_latency: kite_metrics::Histogram,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

fn open_segment(dir: &Path, seq: u64) -> io::Result<File> {
    let mut f = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(segment_path(dir, seq))?;
    f.write_all(&frame::file_header(frame::SEG_MAGIC, seq))?;
    f.sync_data()?;
    Ok(f)
}

impl Wal {
    /// Open (creating if needed) the WAL under `dir` and start the flusher
    /// thread. Staged records wait out `commit_window_ns` (at least 1 ns)
    /// before one group commit; a rotation is due every
    /// `snapshot_interval_ns` in which the log outgrew the last snapshot
    /// (see the crate docs). A fresh segment is always opened — one past
    /// the highest sequence present — so a torn tail left by a crash is
    /// never appended to. Call only after [`recover_into`] has replayed
    /// `dir`.
    pub fn open(
        dir: &Path,
        commit_window_ns: u64,
        snapshot_interval_ns: u64,
        source: SnapshotSource,
    ) -> io::Result<Arc<Wal>> {
        fs::create_dir_all(dir)?;
        let newest = recover::list_files(dir, "wal-", ".log")?
            .last()
            .map(|(seq, _)| *seq)
            .max(recover::list_files(dir, "snap-", ".snap")?.last().map(|(seq, _)| *seq))
            .unwrap_or(0);
        let seq = newest + 1;
        let seg = open_segment(dir, seq)?;
        let wal = Arc::new(Wal {
            dir: dir.to_path_buf(),
            commit_window: Duration::from_nanos(commit_window_ns.max(1)),
            snapshot_interval: Duration::from_nanos(snapshot_interval_ns.max(1)),
            inner: Mutex::new(Staging {
                buf: Vec::with_capacity(STAGING_CAP),
                appended: 0,
                durable: 0,
                seq,
                parked: false,
                waiters: 0,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
            stop: AtomicBool::new(false),
            flush_req: AtomicBool::new(false),
            snap_req: AtomicBool::new(false),
            skip_final_snapshot: AtomicBool::new(false),
            counters: Counters::default(),
            commit_latency: kite_metrics::Histogram::new(),
            flusher: Mutex::new(None),
        });
        let handle = {
            let wal = Arc::clone(&wal);
            std::thread::Builder::new()
                .name("kite-wal-flusher".into())
                .spawn(move || wal.flusher_loop(seg, source))?
        };
        *wal.flusher.lock().unwrap() = Some(handle);
        Ok(wal)
    }

    /// Current counters and lag.
    pub fn stats(&self) -> WalStats {
        let (appended, durable) = {
            let inner = self.inner.lock().unwrap();
            (inner.appended, inner.durable)
        };
        WalStats {
            records: self.counters.records.load(Ordering::Relaxed),
            appended_bytes: appended,
            durable_bytes: durable,
            lag_bytes: appended - durable,
            flush_batches: self.counters.flush_batches.load(Ordering::Relaxed),
            fsyncs: self.counters.fsyncs.load(Ordering::Relaxed),
            snapshots: self.counters.snapshots.load(Ordering::Relaxed),
            snapshot_entries: self.counters.snapshot_entries.load(Ordering::Relaxed),
            flusher_wakes: self.counters.flusher_wakes.load(Ordering::Relaxed),
            commit_busy_ns: self.counters.commit_busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Group-commit latency histogram (write + fsync wall time per batch).
    pub fn commit_latency(&self) -> &kite_metrics::Histogram {
        &self.commit_latency
    }

    /// One-line health summary for the watchdog dump.
    pub fn describe(&self) -> String {
        let s = self.stats();
        format!(
            "wal records={} durable={}B lag={}B batches={} fsyncs={} snapshots={} snap_entries={} \
             flusher_wakes={} commit_busy={}ns",
            s.records, s.durable_bytes, s.lag_bytes, s.flush_batches, s.fsyncs, s.snapshots,
            s.snapshot_entries, s.flusher_wakes, s.commit_busy_ns
        )
    }

    /// Block until everything staged before this call is fsynced.
    pub fn flush(&self) {
        let inner = self.inner.lock().unwrap();
        let target = inner.appended;
        self.flush_req.store(true, Ordering::Relaxed);
        self.wake.notify_all();
        self.wait_done(inner, |staging| staging.durable >= target);
    }

    /// Force a snapshot + log truncation now and wait for it to complete.
    pub fn snapshot_now(&self) {
        let target = self.counters.snapshots.load(Ordering::Relaxed) + 1;
        // Requests are raised under the staging mutex: the flusher checks
        // them under it before parking, so none can slip past into a park.
        let inner = self.inner.lock().unwrap();
        self.snap_req.store(true, Ordering::Relaxed);
        self.wake.notify_all();
        self.wait_done(inner, |_| self.counters.snapshots.load(Ordering::Relaxed) >= target);
    }

    /// Block on `done` until `reached` holds (or the flusher stopped),
    /// registered as a waiter so that [`Wal::publish`] knows to notify.
    fn wait_done(&self, mut inner: MutexGuard<'_, Staging>, reached: impl Fn(&Staging) -> bool) {
        inner.waiters += 1;
        while !reached(&inner) && !self.stop.load(Ordering::Relaxed) {
            inner = self.done.wait(inner).unwrap();
        }
        inner.waiters -= 1;
    }

    /// Clean shutdown: final flush, final snapshot, flusher joined. After
    /// this the next boot loads the snapshot and replays an empty tail.
    /// Idempotent; later `record` calls are staged but never flushed.
    pub fn shutdown(&self) {
        self.stop_flusher();
    }

    /// Stop the flusher after a final flush but **without** the final
    /// snapshot: the segments stay exactly as flushed — the on-disk state
    /// of a crash whose tail happened to be durable. Fault-injection
    /// tests use this to freeze a durable prefix they then corrupt.
    pub fn close(&self) {
        self.skip_final_snapshot.store(true, Ordering::Relaxed);
        self.stop_flusher();
    }

    fn stop_flusher(&self) {
        {
            let _guard = self.inner.lock().unwrap();
            self.stop.store(true, Ordering::Relaxed);
            self.wake.notify_all();
        }
        let handle = self.flusher.lock().unwrap().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        // Unblock any flush()/snapshot_now() waiters racing the shutdown.
        self.publish(|_| {});
    }

    /// Apply `update` to the staging state and wake the `flush()`/
    /// `snapshot_now()` callers blocked on what it changed — if there are
    /// any. Waiters register under the staging mutex before they wait and
    /// re-check under it, so a caller this misses has yet to look.
    fn publish(&self, update: impl FnOnce(&mut Staging)) {
        let mut inner = self.inner.lock().unwrap();
        update(&mut inner);
        let waiting = inner.waiters > 0;
        drop(inner);
        if waiting {
            self.done.notify_all();
        }
    }

    // ---- flusher ---------------------------------------------------------

    fn flusher_loop(&self, mut seg: File, source: SnapshotSource) {
        let mut spare: Vec<u8> = Vec::with_capacity(STAGING_CAP);
        let mut last_snapshot = Instant::now();
        // `appended` from which the log has outgrown the newest snapshot:
        // past the last rotation by the snapshot's bytes, and by one at
        // least (an unchanged store is never re-dumped).
        let mut outgrown_at: u64 = 1;
        loop {
            let outgrown;
            {
                let mut inner = self.inner.lock().unwrap();
                let requested = || {
                    self.stop.load(Ordering::Relaxed)
                        || self.flush_req.load(Ordering::Relaxed)
                        || self.snap_req.load(Ordering::Relaxed)
                };
                // Nothing staged: park until an append signals the
                // idle→busy edge or a request arrives, but no longer than
                // the next snapshot is due (or, with none due, one
                // interval — a heartbeat, not a deadline).
                inner.parked = inner.buf.is_empty();
                while inner.parked && !requested() {
                    let due_in = if inner.appended >= outgrown_at {
                        self.snapshot_interval.saturating_sub(last_snapshot.elapsed())
                    } else {
                        self.snapshot_interval
                    };
                    if due_in.is_zero() {
                        break;
                    }
                    inner = self.wake.wait_timeout(inner, due_in).unwrap().0;
                    self.counters.flusher_wakes.fetch_add(1, Ordering::Relaxed);
                }
                inner.parked = false;
                // Something staged: sleep out the commit window from here —
                // the first record's arrival after a park, the end of the
                // last commit under load. A request ends it early, and so
                // does a full staging buffer (the append that fills it
                // signals): time paces a trickle, bytes pace a burst.
                let deadline = Instant::now() + self.commit_window;
                while !inner.buf.is_empty() && inner.buf.len() < STAGING_CAP && !requested() {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    inner = self.wake.wait_timeout(inner, deadline - now).unwrap().0;
                    self.counters.flusher_wakes.fetch_add(1, Ordering::Relaxed);
                }
                outgrown = inner.appended >= outgrown_at;
            }
            self.flush_req.store(false, Ordering::Relaxed);
            let stopping = self.stop.load(Ordering::Relaxed);

            // Swap staging out and commit the batch.
            if self.commit_batch(&mut seg, &mut spare).is_err() {
                // Disk trouble: durability is lost but the replica keeps
                // serving (same availability stance as running WAL-off).
                // Retry next window.
            }

            let snapshot_due = self.snap_req.swap(false, Ordering::Relaxed)
                || (outgrown && last_snapshot.elapsed() >= self.snapshot_interval);
            let wants_snapshot = if stopping {
                !self.skip_final_snapshot.load(Ordering::Relaxed)
            } else {
                snapshot_due
            };
            if wants_snapshot {
                if let Ok((new_seg, next)) = self.rotate_and_snapshot(seg, &mut spare, &source) {
                    seg = new_seg;
                    outgrown_at = next;
                    last_snapshot = Instant::now();
                } else {
                    // Rotation failed irrecoverably (the old segment file
                    // is consumed): stop so waiters never hang.
                    self.stop.store(true, Ordering::Relaxed);
                    self.publish(|_| {});
                    return;
                }
                self.publish(|_| {});
            }
            if stopping {
                return;
            }
        }
    }

    /// Swap the staging buffer against `spare`, write it to `seg`, fsync,
    /// and publish the new durable watermark.
    fn commit_batch(&self, seg: &mut File, spare: &mut Vec<u8>) -> io::Result<()> {
        let watermark = {
            let mut inner = self.inner.lock().unwrap();
            std::mem::swap(&mut inner.buf, spare);
            inner.appended
        };
        if !spare.is_empty() {
            let started = Instant::now();
            seg.write_all(spare)?;
            seg.sync_data()?;
            self.counters.flush_batches.fetch_add(1, Ordering::Relaxed);
            self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
            // Group-commit latency = write + fsync wall time of the batch
            // (the disk-side cost every staged record in it waited on).
            let commit_ns = started.elapsed().as_nanos() as u64;
            self.commit_latency.record(commit_ns);
            self.counters.commit_busy_ns.fetch_add(commit_ns, Ordering::Relaxed);
            spare.clear();
        }
        self.publish(|inner| inner.durable = inner.durable.max(watermark));
        Ok(())
    }

    /// The rotation protocol (see the crate docs for the ordering
    /// argument): seal the old segment, open `S+1`, dump the store to a
    /// temp snapshot, fsync + rename, prune everything older. Returns the
    /// new segment and the `appended` watermark from which the log has
    /// outgrown this snapshot.
    fn rotate_and_snapshot(
        &self,
        mut seg: File,
        spare: &mut Vec<u8>,
        source: &SnapshotSource,
    ) -> io::Result<(File, u64)> {
        // 1. Swap any residue and bump the segment sequence: appends from
        //    here on belong to the new segment.
        let (watermark, new_seq) = {
            let mut inner = self.inner.lock().unwrap();
            std::mem::swap(&mut inner.buf, spare);
            inner.seq += 1;
            (inner.appended, inner.seq)
        };
        // 2. Seal the old segment with the residue.
        if !spare.is_empty() {
            seg.write_all(spare)?;
            self.counters.flush_batches.fetch_add(1, Ordering::Relaxed);
            spare.clear();
        }
        seg.sync_data()?;
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        drop(seg);
        let new_seg = open_segment(&self.dir, new_seq)?;
        self.publish(|inner| inner.durable = inner.durable.max(watermark));

        // 3. Dump the store. Every record sealed above was applied to the
        //    store before this walk starts, so the snapshot covers all
        //    sealed segments.
        let tmp = self.dir.join(format!("snap-{new_seq:010}.tmp"));
        let mut w = BufWriter::new(File::create(&tmp)?);
        w.write_all(&frame::file_header(frame::SNAP_MAGIC, new_seq))?;
        let (mut count, mut bytes) = (0u64, 0u64);
        let mut err: Option<io::Error> = None;
        {
            let mut frame_buf = [0u8; frame::MAX_FRAME];
            source(&mut |key, lc, val| {
                if err.is_some() {
                    return;
                }
                let n = frame::encode_into(&mut frame_buf, key, lc, val);
                match w.write_all(&frame_buf[..n]) {
                    Ok(()) => (count, bytes) = (count + 1, bytes + n as u64),
                    Err(e) => err = Some(e),
                }
            });
        }
        if let Some(e) = err {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        let mut marker = Vec::with_capacity(frame::FRAME_HEADER_LEN);
        frame::append_end_marker(&mut marker, count as u32);
        w.write_all(&marker)?;
        let f = w.into_inner().map_err(|e| e.into_error())?;
        f.sync_data()?;
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        fs::rename(&tmp, snapshot_path(&self.dir, new_seq))?;

        // 4. Prune: the snapshot supersedes every older file.
        for (seq, path) in recover::list_files(&self.dir, "wal-", ".log")? {
            if seq < new_seq {
                let _ = fs::remove_file(path);
            }
        }
        for (seq, path) in recover::list_files(&self.dir, "snap-", ".snap")? {
            if seq < new_seq {
                let _ = fs::remove_file(path);
            }
        }
        self.counters.snapshot_entries.store(count, Ordering::Relaxed);
        self.counters.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok((new_seg, watermark + bytes.max(1)))
    }
}

impl DurabilitySink for Wal {
    /// The hot path: one stack-buffer encode + one `extend_from_slice`
    /// into the recycled staging buffer. No allocation once the buffer
    /// reached its working-set capacity, and no syscall — except the one
    /// condvar signal of the append that finds the flusher parked, or that
    /// fills the staging buffer.
    // kite-lint: no-alloc
    fn record(&self, key: Key, lc: Lc, val: &Val) -> Result<(), SinkError> {
        let len = val.as_bytes().len();
        if len > frame::MAX_VALUE {
            // The 1-byte `vlen` and the scanner's payload bound make an
            // oversize frame unreadable on recovery — refuse it here,
            // loudly, rather than append bytes replay will throw away.
            return Err(SinkError::Oversize { len, cap: frame::MAX_VALUE });
        }
        let mut frame_buf = [0u8; frame::MAX_FRAME];
        let n = frame::encode_into(&mut frame_buf, key, lc, val);
        let mut inner = self.inner.lock().unwrap();
        let staged = inner.buf.len();
        inner.buf.extend_from_slice(&frame_buf[..n]);
        inner.appended += n as u64;
        // Two edges wake the flusher, each at most once per batch: idle→busy
        // (it is parked) and the append that fills the staging buffer (it is
        // sleeping out a window this backlog has outgrown).
        let wake = std::mem::take(&mut inner.parked)
            || (staged < STAGING_CAP && staged + n >= STAGING_CAP);
        drop(inner);
        if wake {
            self.wake.notify_one();
        }
        self.counters.records.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_common::{Epoch, NodeId};
    use kite_kvs::Store;

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kite-wal-ut-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open_plain(dir: &Path) -> Arc<Wal> {
        // Snapshot interval pushed out so tests control rotation.
        Wal::open(dir, 200_000, u64::MAX / 4, Box::new(|_| {})).unwrap()
    }

    #[test]
    fn append_flush_recover_round_trips() {
        let dir = tempdir("roundtrip");
        let wal = open_plain(&dir);
        for i in 0..100u64 {
            wal.record(Key(i), Lc::new(i + 1, NodeId(1)), &Val::from_u64(i * 3)).unwrap();
        }
        wal.flush();
        let s = wal.stats();
        assert_eq!(s.records, 100);
        assert_eq!(s.lag_bytes, 0, "flush drains the lag");
        assert!(s.fsyncs >= 1);
        wal.close();

        let store = Store::new(256);
        let stats = recover_into(&dir, &store).unwrap();
        assert!(!stats.truncated);
        assert_eq!(store.len(), 100);
        for i in 0..100u64 {
            let v = store.view(Key(i));
            assert_eq!(v.val.as_u64(), i * 3);
            assert_eq!(v.lc, Lc::new(i + 1, NodeId(1)));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn values_of_every_length_survive_replay_and_snapshot() {
        // Lengths on both sides of the store's 32 inline bytes, through
        // both recovery sources: the log (replayed records) and a snapshot
        // (the store's `for_each_entry` dump).
        let lens = [0usize, 1, 31, 32, 33, 63, 64];
        let val = |i: usize| Val::from_bytes(&vec![i as u8 + 1; lens[i]]);
        for snapshot in [false, true] {
            let dir = tempdir(if snapshot { "lens-snap" } else { "lens-log" });
            let store = Arc::new(Store::new(64));
            let src = Arc::clone(&store);
            let wal = Wal::open(
                &dir,
                100_000,
                u64::MAX / 4,
                Box::new(move |f| src.for_each_entry(|k, lc, v| f(k, lc, v))),
            )
            .unwrap();
            store.attach_sink(Arc::clone(&wal) as Arc<dyn DurabilitySink>);
            for i in 0..lens.len() {
                store.apply_max(Key(i as u64), &val(i), Lc::new(2, NodeId(1)));
            }
            if snapshot {
                wal.snapshot_now();
                assert_eq!(wal.stats().snapshot_entries, lens.len() as u64);
            }
            wal.close();
            let recovered = Store::new(64);
            recover_into(&dir, &recovered).unwrap();
            for i in 0..lens.len() {
                assert_eq!(recovered.view(Key(i as u64)).val, val(i), "{}-byte value", lens[i]);
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn snapshot_rotation_truncates_the_log() {
        let dir = tempdir("rotate");
        let store = Arc::new(Store::new(256));
        let src = Arc::clone(&store);
        let wal = Wal::open(
            &dir,
            100_000,
            u64::MAX / 4,
            Box::new(move |f| src.for_each_entry(|k, lc, v| f(k, lc, v))),
        )
        .unwrap();
        store.attach_sink(Arc::clone(&wal) as Arc<dyn DurabilitySink>);
        for i in 0..50u64 {
            store.apply_max(Key(i), &Val::from_u64(i + 1), Lc::new(5, NodeId(2)));
        }
        wal.snapshot_now();
        let s = wal.stats();
        assert_eq!(s.snapshots, 1);
        assert_eq!(s.snapshot_entries, 50);
        // Exactly one segment (the fresh one) and one snapshot remain.
        assert_eq!(recover::list_files(&dir, "wal-", ".log").unwrap().len(), 1);
        assert_eq!(recover::list_files(&dir, "snap-", ".snap").unwrap().len(), 1);
        // Post-snapshot writes land in the tail and replay on top
        // (close, not shutdown: a final snapshot would absorb the tail).
        store.apply_max(Key(7), &Val::from_u64(777), Lc::new(9, NodeId(0)));
        wal.close();
        let recovered = Store::new(256);
        let stats = recover_into(&dir, &recovered).unwrap();
        assert!(stats.snapshot_seq.is_some());
        assert!(stats.snapshot_entries + stats.replayed_records >= 51);
        assert_eq!(recovered.view(Key(7)).val.as_u64(), 777);
        assert_eq!(recovered.view(Key(3)).val.as_u64(), 4);
        assert_eq!(recovered.len(), 50);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn graceful_shutdown_leaves_zero_replay() {
        let dir = tempdir("graceful");
        let store = Arc::new(Store::new(64));
        let src = Arc::clone(&store);
        let wal = Wal::open(
            &dir,
            100_000,
            u64::MAX / 4,
            Box::new(move |f| src.for_each_entry(|k, lc, v| f(k, lc, v))),
        )
        .unwrap();
        store.attach_sink(Arc::clone(&wal) as Arc<dyn DurabilitySink>);
        for i in 0..20u64 {
            store.fast_write(Key(i), &Val::from_u64(i), NodeId(0), Epoch::ZERO);
        }
        wal.shutdown(); // final flush + snapshot
        let recovered = Store::new(64);
        let stats = recover_into(&dir, &recovered).unwrap();
        assert_eq!(stats.replayed_records, 0, "a clean exit replays nothing");
        assert!(stats.snapshot_seq.is_some());
        assert_eq!(recovered.len(), 20);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_never_appends_to_an_old_segment() {
        let dir = tempdir("reopen");
        let wal = open_plain(&dir);
        wal.record(Key(1), Lc::new(1, NodeId(0)), &Val::from_u64(1)).unwrap();
        wal.flush();
        wal.close();
        let first = recover::list_files(&dir, "wal-", ".log").unwrap();
        let wal = open_plain(&dir);
        wal.record(Key(2), Lc::new(1, NodeId(0)), &Val::from_u64(2)).unwrap();
        wal.flush();
        wal.close();
        let second = recover::list_files(&dir, "wal-", ".log").unwrap();
        assert!(second.len() > first.len(), "a reopen opens a fresh segment");
        let store = Store::new(64);
        recover_into(&dir, &store).unwrap();
        assert_eq!(store.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appenders_all_become_durable() {
        let dir = tempdir("concurrent");
        let wal = open_plain(&dir);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let wal = Arc::clone(&wal);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let k = t * 1000 + i;
                    wal.record(Key(k), Lc::new(i + 1, NodeId(t as u8)), &Val::from_u64(k)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        wal.flush();
        wal.close();
        let store = Store::new(4096);
        let stats = recover_into(&dir, &store).unwrap();
        assert_eq!(stats.replayed_records, 2000);
        assert_eq!(store.len(), 2000);
        let _ = fs::remove_dir_all(&dir);
    }
}
