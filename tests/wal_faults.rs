//! WAL fault injection: torn tails, corrupt frames, duplicated
//! group-commit batches — and the `wal(false)` kill switch.
//!
//! The durability contract under crash faults is *prefix* semantics: a
//! recovered store equals the pre-crash store restricted to the durable
//! prefix of the log, no matter how the tail was mangled. Each test
//! freezes a known durable state with [`kite_wal::Wal::close`] (final
//! flush, **no** final snapshot — the on-disk shape of a crash whose tail
//! happened to be flushed), mutilates the segment bytes the way a real
//! torn write would, and asserts recovery lands exactly on the surviving
//! prefix. The ablation at the bottom mirrors
//! `tests/antientropy.rs::anti_entropy_on_off_equivalence_under_faults`:
//! with `wal(false)` the durability knobs are provably inert — same
//! completed ops, same RC verdicts, not a file on disk.

use std::collections::BTreeSet;
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use kite::{ProtocolMode, SimCluster};
use kite_common::{ClusterConfig, Key, Lc, NodeId, Val};
use kite_kvs::Store;
use kite_repro::testutil::recording_hook;
use kite_simnet::SimCfg;
use kite_verify::{check_rc, History};
use kite_wal::{frame, recover_into, Wal};

const SEC: u64 = 1_000_000_000;
const KEYS: u64 = 200;

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kite-walft-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Build a durable log of `KEYS` known writes through the real store
/// choke point (sink attached to `Store`, records staged by `apply_max`),
/// flush, and freeze it with `close()`. Returns the WAL dir.
fn durable_setup(name: &str) -> PathBuf {
    let dir = tempdir(name);
    let store = Store::new(1 << 10);
    let wal = Wal::open(&dir, 100_000, u64::MAX / 4, Box::new(|_| {})).expect("open wal");
    store.attach_sink(Arc::clone(&wal) as Arc<dyn kite_kvs::DurabilitySink>);
    for k in 0..KEYS {
        store.apply_max(Key(k), &Val::from_u64(k + 1), Lc::new(k + 1, NodeId(0)));
    }
    wal.close();
    dir
}

/// The one live segment in `dir` (every test writes without rotating).
fn the_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read wal dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    assert_eq!(segs.len(), 1, "setup must leave exactly one segment: {segs:?}");
    segs.pop().unwrap()
}

/// Recover `dir` into a fresh store and return it with the stats.
fn recover(dir: &Path) -> (Store, kite_wal::RecoveryStats) {
    let store = Store::new(1 << 10);
    let stats = recover_into(dir, &store).expect("recovery must not error");
    (store, stats)
}

/// Assert the recovered store holds exactly keys `0..prefix` with the
/// setup's values and nothing from `prefix..KEYS`.
fn assert_prefix(store: &Store, prefix: u64) {
    for k in 0..prefix {
        assert_eq!(
            store.view(Key(k)).val.as_u64(),
            k + 1,
            "key {k} inside the durable prefix must survive"
        );
    }
    for k in prefix..KEYS {
        assert_eq!(
            store.probe_lc(Key(k)),
            None,
            "key {k} past the tear must not resurrect"
        );
    }
}

/// A crash tears the last record mid-write: the truncated frame is
/// detected (short payload), the prefix before it replays intact.
#[test]
fn torn_tail_truncates_to_durable_prefix() {
    let dir = durable_setup("torn");
    let seg = the_segment(&dir);
    let len = std::fs::metadata(&seg).expect("segment metadata").len();
    OpenOptions::new()
        .write(true)
        .open(&seg)
        .expect("open segment")
        .set_len(len - 4)
        .expect("tear the tail");

    let (store, stats) = recover(&dir);
    assert!(stats.truncated, "a torn frame must be reported");
    assert_eq!(stats.replayed_records, KEYS - 1, "exactly the torn record is lost");
    assert_prefix(&store, KEYS - 1);
}

/// A bit flip inside a CRC'd payload kills that record *and everything
/// after it* — frame boundaries downstream of a corrupt length field
/// cannot be trusted, so the scan stops at the first bad CRC.
#[test]
fn bit_flip_truncates_at_the_corrupt_record() {
    let dir = durable_setup("flip");
    let seg = the_segment(&dir);
    // Locate a mid-log record's bytes with the real scanner, then flip one
    // bit inside its payload.
    let scan = frame::scan_file(&seg, frame::SEG_MAGIC)
        .expect("scan segment")
        .expect("valid segment header");
    assert_eq!(scan.records.len() as u64, KEYS);
    let victim = &scan.records[(KEYS / 2) as usize];
    let flip_at = victim.offset + frame::FRAME_HEADER_LEN as u64 + 3;
    let mut f = OpenOptions::new().read(true).write(true).open(&seg).expect("open segment");
    let mut byte = [0u8; 1];
    f.seek(SeekFrom::Start(flip_at)).unwrap();
    f.read_exact(&mut byte).unwrap();
    byte[0] ^= 0x10;
    f.seek(SeekFrom::Start(flip_at)).unwrap();
    f.write_all(&byte).unwrap();
    drop(f);

    let (store, stats) = recover(&dir);
    assert!(stats.truncated, "a CRC mismatch must be reported");
    assert_eq!(stats.replayed_records, KEYS / 2, "replay stops at the flipped record");
    assert_prefix(&store, KEYS / 2);
}

/// A crash between `write_all` and the durable-watermark update can leave
/// the last group-commit batch written twice (the flusher retries from
/// its spare buffer). Replay through LLC-max makes the duplicate a no-op:
/// the recovered store is byte-identical to the clean one.
#[test]
fn duplicated_tail_group_recovers_to_the_same_store() {
    let dir = durable_setup("dup");
    let seg = the_segment(&dir);
    let scan = frame::scan_file(&seg, frame::SEG_MAGIC)
        .expect("scan segment")
        .expect("valid segment header");
    // Re-append the bytes of the last 8 records verbatim.
    let dup_from = scan.records[scan.records.len() - 8].offset;
    let mut bytes = Vec::new();
    std::fs::File::open(&seg).unwrap().read_to_end(&mut bytes).unwrap();
    let tail = bytes[dup_from as usize..].to_vec();
    OpenOptions::new().append(true).open(&seg).unwrap().write_all(&tail).unwrap();

    let (store, stats) = recover(&dir);
    assert!(!stats.truncated, "a duplicated batch is valid frames, not a tear");
    assert_eq!(stats.replayed_records, KEYS + 8, "duplicates are replayed...");
    assert_prefix(&store, KEYS); // ... but LLC-max absorbs them
}

/// All three faults at once on a log that also has a snapshot underneath:
/// snapshot + mangled tail still recovers to the snapshot ∪ surviving
/// segment prefix.
#[test]
fn snapshot_plus_mangled_tail_recovers_the_union() {
    let dir = tempdir("snap-mangle");
    let store = Arc::new(Store::new(1 << 10));
    let src = Arc::clone(&store);
    let wal = Wal::open(
        &dir,
        100_000,
        u64::MAX / 4,
        Box::new(move |f| src.for_each_entry(|k, lc, v| f(k, lc, v))),
    )
    .expect("open wal");
    store.attach_sink(Arc::clone(&wal) as Arc<dyn kite_kvs::DurabilitySink>);
    for k in 0..KEYS {
        store.apply_max(Key(k), &Val::from_u64(k + 1), Lc::new(k + 1, NodeId(0)));
    }
    wal.snapshot_now(); // first KEYS writes now live in the snapshot
    for k in KEYS..KEYS + 50 {
        store.apply_max(Key(k), &Val::from_u64(k + 1), Lc::new(k + 1, NodeId(0)));
    }
    wal.close();

    // Tear the post-snapshot segment three records from its end.
    let seg = the_segment(&dir);
    let scan = frame::scan_file(&seg, frame::SEG_MAGIC).unwrap().unwrap();
    assert_eq!(scan.records.len(), 50, "post-snapshot segment holds the delta");
    let tear_at = scan.records[47].offset + 5;
    OpenOptions::new().write(true).open(&seg).unwrap().set_len(tear_at).unwrap();

    let recovered = Store::new(1 << 10);
    let stats = recover_into(&dir, &recovered).expect("recovery");
    assert!(stats.snapshot_seq.is_some(), "snapshot must be found");
    assert_eq!(stats.snapshot_entries, KEYS);
    assert!(stats.truncated);
    assert_eq!(stats.replayed_records, 47, "segment replay stops at the tear");
    for k in 0..KEYS + 47 {
        assert_eq!(recovered.view(Key(k)).val.as_u64(), k + 1, "key {k}");
    }
    for k in KEYS + 47..KEYS + 50 {
        assert_eq!(recovered.probe_lc(Key(k)), None, "torn key {k} must not resurrect");
    }
}

/// The kill switch, in the style of the anti-entropy on/off equivalence
/// (`tests/antientropy.rs`): a faulted mixed run
/// with a WAL directory configured completes exactly the same operations
/// as a run with defaults (no WAL), both histories pass the RC checks,
/// and the configured directory stays untouched — durability belongs to
/// a node's runtime, and the simulator (like any deployment with
/// durability off) never observes it.
#[test]
fn wal_off_is_a_provable_no_op() {
    let dir = tempdir("killswitch");
    let run = |cfg: ClusterConfig| -> (BTreeSet<(u8, u32, u64)>, Arc<History>) {
        let history = Arc::new(History::new());
        let mut sc = SimCluster::build(
            cfg,
            ProtocolMode::Kite,
            SimCfg { seed: 7, ..Default::default() },
            |sid| kite_repro::testutil::mixed_fault_driver(sid, 5, 40),
            Some(recording_hook(Arc::clone(&history))),
        );
        sc.sim.set_drop(NodeId(0), NodeId(2), 0.25);
        sc.sim.set_drop(NodeId(1), NodeId(0), 0.25);
        assert!(sc.run_until_quiesce(60 * SEC), "faulted run must quiesce");
        let completed = history
            .sorted()
            .iter()
            .map(|r| (r.session.node.0, r.session.slot, r.session_seq))
            .collect();
        (completed, history)
    };

    let base = ClusterConfig::small().keys(1 << 10).release_timeout_ns(200_000);
    let (ops_default, hist_default) = run(base.clone());
    let (ops_off, hist_off) = run(base.wal_dir(dir.to_str().expect("utf8 tempdir")));

    assert_eq!(ops_default, ops_off, "a WAL directory must not change one completed op");
    // Neither simulated run writes a WAL, so both owe the same guarantees.
    for hist in [&hist_default, &hist_off] {
        assert_eq!(check_rc(hist), Ok(()));
    }
    assert!(!dir.exists(), "the simulator must not create {}", dir.display());
}

/// The oversize-value contract at the frame cap, byte-exact: a 64-byte
/// value (the largest the `vlen: u8` frame field can carry alongside the
/// store's own cap) is recorded and survives recovery; a 65-byte value is
/// refused with the typed [`kite_kvs::SinkError::Oversize`] *before*
/// touching the log — failing fast beats writing a frame that replay
/// would misparse, and the error names both the offending length and the
/// cap so the caller's panic message is actionable.
#[test]
fn oversize_value_fails_fast_at_the_frame_cap() {
    use kite_kvs::{DurabilitySink, SinkError};
    let dir = tempdir("oversize");
    let wal = Wal::open(&dir, 100_000, u64::MAX / 4, Box::new(|_| {})).expect("open wal");

    // 64 bytes: exactly at the cap — accepted.
    let at_cap = Val::from_bytes(&[0xAB; frame::MAX_VALUE]);
    wal.record(Key(1), Lc::new(1, NodeId(0)), &at_cap).expect("value at the cap must record");

    // 65 bytes: one past the cap — typed refusal, log untouched.
    let over = Val::from_bytes(&[0xCD; frame::MAX_VALUE + 1]);
    match wal.record(Key(2), Lc::new(2, NodeId(0)), &over) {
        Err(SinkError::Oversize { len, cap }) => {
            assert_eq!((len, cap), (frame::MAX_VALUE + 1, frame::MAX_VALUE));
        }
        other => panic!("oversize record must fail with SinkError::Oversize, got {other:?}"),
    }
    wal.close();

    // Recovery sees exactly the in-cap record: the refused write left no
    // partial frame behind for replay to trip on.
    let (recovered, stats) = recover(&dir);
    assert_eq!(stats.replayed_records, 1);
    assert_eq!(recovered.view(Key(1)).val.as_bytes(), at_cap.as_bytes());
    assert_eq!(recovered.probe_lc(Key(2)), None, "refused value must not resurrect");
    let _ = std::fs::remove_dir_all(&dir);
}
