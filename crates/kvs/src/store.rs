//! The MICA-style concurrent store: a fixed-capacity, open-addressing hash
//! index over preallocated seqlock records (§6.2).
//!
//! Unlike MICA's cache mode the index is *lossless* (no eviction): the KVS
//! holds a preloaded, replicated key set (§7: one million key-value pairs
//! replicated on all nodes), so dropping entries would be a correctness bug,
//! not a cache miss. Slots are claimed lock-free with a CAS on first touch.
//!
//! # Look-ahead
//!
//! The slot array is far larger than any cache, and a key and its record
//! share one slot of exactly one line-aligned cache line (key, seqlock,
//! clock, a packed epoch/extension/length word and the first 32 value
//! bytes; see `record`), so a lookup is one DRAM miss on the slot and
//! nothing else for any value of up to 32 bytes. MICA and the paper's
//! workers hide that miss by prefetching for a whole batch of requests
//! before probing for any of them. [`Store::prefetch`] is the same hint for
//! a single key — one prefetch of one line: a caller that learns a key some
//! time *before* it looks the key up (a runtime that knows its next
//! delivery, a session that knows its next op) issues it and goes on with
//! other work. It is only a hint — it reads no slot, claims none, and
//! nothing about a later lookup depends on it having been given.
//!
//! # The Merkle leaf lattice
//!
//! Alongside the slots the store always maintains an incremental hash
//! summary, which the anti-entropy sweep folds into Merkle summaries
//! whenever write churn is low: an array of **leaf hashes**, one per
//! `LEAF_SPAN` *home* slots, where leaf `i` is the XOR of
//! [`merkle_mix`]`(key, lc)` over every written entry whose home slot
//! (before linear-probe displacement) falls in leaf `i`'s range. Leaves
//! bucket by *home* position — a pure function of the key and the slot
//! count — so two replicas holding the same `(key, lc)` set produce the
//! same leaf hashes even when probing placed the keys in different
//! physical slots.
//!
//! # Geometry
//!
//! A store for `keys` keys has ⌈1.5 · keys⌉ slots rounded up to a whole
//! leaf (see `capacity`), so a full store is at most 2/3 loaded: linear
//! probing then expects 2 probes per hit and 5 per miss (Knuth, TAOCP 3
//! §6.4). The slot count is not a power of two, so the home slot is the
//! multiply-shift reduction `(key.hash() · capacity) >> 64` (Lemire,
//! arXiv:1805.10941) rather than the hash's low bits: `Key::hash` is a
//! splitmix64 finalizer, so its high bits are uniform. The reduction is
//! monotone in the hash, so a leaf is one contiguous range of home slots,
//! and every replica sized for the same `keys` has the same lattice.
//!
//! **Lock-free update rule.** Every mutation that changes a key's clock
//! from `old` to `new` XORs `merkle_mix(key, old) ^ merkle_mix(key, new)`
//! into the key's leaf with one `fetch_xor`, *after* the seqlock write
//! section commits. XOR is commutative and associative, and the seqlock
//! serializes the clock transitions per key, so any interleaving of
//! concurrent updates telescopes to `mix(initial) ^ mix(final)` — at
//! quiescence a leaf always equals the XOR of its members' current mixes,
//! with writers never blocked and no lock ever taken. A fold that races a
//! writer may observe the value transition without its hash delta (or vice
//! versa); the resulting spurious range mismatch only costs an idempotent
//! drill-down, exactly like a flat digest racing a write.
//!
//! `merkle_mix(key, Lc::ZERO)` is **defined as 0**, so slots that are
//! claimed but never written (a read probing a fresh key) are invisible to
//! the lattice: "both sides hold nothing" must hash equal regardless of
//! who happened to claim a slot, or two converged replicas would drill
//! down at each other forever.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use kite_common::{ClusterConfig, Epoch, Key, Lc, NodeId, Val};
use parking_lot::Mutex;

use crate::paxos_meta::PaxosMeta;
use crate::record::{ExtArena, ReadView, Record, MAX_EXTS};

const EMPTY_KEY: u64 = u64::MAX;

/// Home slots per Merkle leaf (see the module docs). A constant, so every
/// replica of a `keys`-sized store has the same lattice geometry.
const LEAF_SPAN: usize = 64;

/// The per-entry hash the Merkle leaf lattice accumulates: a splitmix64
/// avalanche over the packed `(key, lc)` pair. `Lc::ZERO` maps to 0 by
/// definition — claimed-but-unwritten slots must not perturb the lattice
/// (see the module docs).
#[inline]
pub fn merkle_mix(key: Key, lc: Lc) -> u64 {
    if lc == Lc::ZERO {
        return 0;
    }
    let packed = (lc.version() << 8) | lc.mid() as u64;
    let mut z = key.0 ^ packed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One key's slot: its key word and its record, in one cache line.
#[repr(C, align(64))]
struct Slot {
    key: AtomicU64,
    record: Record,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 64 && std::mem::align_of::<Slot>() == 64);

/// Slots of a store sized for `keys`: ⌈1.5 · keys⌉ rounded up to a whole
/// Merkle leaf, and at least one leaf — a full store is at most 2/3
/// loaded, and the leaves tile the slots exactly.
const fn capacity(keys: usize) -> usize {
    let slots = (keys * 3).div_ceil(2).div_ceil(LEAF_SPAN) * LEAF_SPAN;
    if slots < LEAF_SPAN {
        LEAF_SPAN
    } else {
        slots
    }
}

// Every key count `ClusterConfig::validate` accepts gets a store whose
// slots the extension index can all name.
const _: () = assert!(capacity(ClusterConfig::MAX_KEYS) <= MAX_EXTS);

/// A durability hook fed one `(key, lc, val)` triple by **every**
/// stamp-transitioning store apply — the same choke points that feed the
/// Merkle leaf lattice. The write-ahead log implements this; the store
/// stays ignorant of framing, files and fsync.
///
/// Called *after* the seqlock write section commits, from the applying
/// protocol thread, so implementations must be cheap and non-blocking
/// (the WAL stages bytes into an in-memory buffer and lets a dedicated
/// flusher thread do the I/O). Per-key ordering is not guaranteed across
/// racing appliers — consumers must be order-insensitive, which WAL replay
/// is by construction (replay re-applies under the LLC-max rule).
pub trait DurabilitySink: Send + Sync {
    /// Record that `key` now holds `val` at clock `lc`.
    ///
    /// Sinks with a framing limit (the WAL caps values at its `vlen u8`
    /// budget) must refuse an unframeable record with a typed
    /// [`SinkError`] rather than truncating or silently skipping it: a
    /// write the application believes durable but the sink never framed
    /// would survive right up until the crash that needed it.
    fn record(&self, key: Key, lc: Lc, val: &Val) -> Result<(), SinkError>;
}

/// Typed refusal from a [`DurabilitySink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkError {
    /// The value exceeds the sink's frame cap (`len` bytes against a
    /// `cap`-byte budget) and cannot be made durable.
    Oversize {
        /// Offered value length in bytes.
        len: usize,
        /// The sink's maximum framable value length.
        cap: usize,
    },
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkError::Oversize { len, cap } => {
                write!(f, "value of {len} bytes exceeds the sink's {cap}-byte frame cap")
            }
        }
    }
}

impl std::error::Error for SinkError {}

/// A node-local replica of the KVS.
pub struct Store {
    slots: Box<[Slot]>,
    /// Value tails and Paxos structures, one extension per key that needed
    /// one (see `record`'s module docs).
    exts: ExtArena,
    /// Population count, bumped once per claimed slot — keeps
    /// [`Store::len`] O(1) instead of an O(capacity) slot scan.
    live: AtomicUsize,
    /// Value count: slots whose clock has left `Lc::ZERO`. A read probing
    /// a fresh key claims a slot (counted in `live`) but writes nothing —
    /// this gauge counts only slots holding a real value, so two replicas
    /// that diverge in what they were *asked* about but agree on what was
    /// *written* report the same number (the learner-sync convergence
    /// check in `scripts/e2e_tcp.sh` depends on exactly that).
    written: AtomicUsize,
    /// Merkle leaf lattice: `leaves[i]` = XOR of [`merkle_mix`] over every
    /// written entry whose *home* slot lies in `[i << leaf_shift,
    /// (i + 1) << leaf_shift)`. See the module docs for the update rule.
    leaves: Box<[AtomicU64]>,
    /// `home_slot >> leaf_shift` = leaf index.
    leaf_shift: u32,
    /// Optional durability sink (the WAL), attached at most once after
    /// recovery. Unset — the default, and every deployment with `wal`
    /// off — costs one predictable atomic load per write.
    sink: OnceLock<Arc<dyn DurabilitySink>>,
    /// Optional observability probe (write counter + distinct-keys HLL),
    /// attached at most once. Same cost model as the sink: one predictable
    /// atomic load per write when unset.
    probe: OnceLock<Arc<StoreProbe>>,
    /// Optional single-key watch, attached at most once: a callback fired
    /// at the [`Store::sink_apply`] choke point whenever *that key* is
    /// applied. This is how dynamic membership rides the store: the node
    /// watches the reserved membership key, so commits, WAL replay and
    /// anti-entropy repairs all install configuration through one door.
    /// Same cost model as the sink: one predictable atomic load plus one
    /// key compare per write when unset.
    watch: OnceLock<(u64, Arc<dyn Fn(Lc, &Val) + Send + Sync>)>,
}

/// Live observability counters for the store, bumped at the same choke
/// point as the durability sink ([`Store::sink_apply`]) so every mutator
/// path — fast-path writes, lattice-max applies, RMW commits, recovery
/// restores — is counted exactly once per applied write. Recording is
/// lock-free and allocation-free (see `kite-metrics`).
#[derive(Default)]
pub struct StoreProbe {
    /// Applied writes across all mutator paths.
    pub writes: kite_metrics::Counter,
    /// Distinct keys ever written (HyperLogLog estimate, ~1.6% std error).
    pub distinct_keys: kite_metrics::Hll,
}

impl Store {
    /// Create a store able to hold at least `keys` distinct keys: ⌈1.5 ·
    /// keys⌉ slots rounded up to a whole Merkle leaf (see the module docs).
    /// Every key count up to [`ClusterConfig::MAX_KEYS`] fits; panics when
    /// the slots outgrow the extension index.
    pub fn new(keys: usize) -> Self {
        Self::with_leaf_span(keys, LEAF_SPAN)
    }

    /// [`Store::new`] with another Merkle leaf span (home slots per leaf
    /// hash; rounded up to a power of two, at most `LEAF_SPAN`, so the
    /// leaves still tile the slots exactly) — small spans let unit tests
    /// cross leaf boundaries with a few keys. The lattice is not optional:
    /// the sweep may summarize any interval.
    fn with_leaf_span(keys: usize, leaf_span: usize) -> Self {
        let cap = capacity(keys);
        let exts = ExtArena::new(cap);
        let slots: Box<[Slot]> = (0..cap)
            .map(|_| Slot { key: AtomicU64::new(EMPTY_KEY), record: Record::new() })
            .collect();
        let span = leaf_span.next_power_of_two().min(LEAF_SPAN);
        let leaves: Box<[AtomicU64]> = (0..cap / span).map(|_| AtomicU64::new(0)).collect();
        let leaf_shift = span.trailing_zeros();
        Store {
            slots,
            exts,
            live: AtomicUsize::new(0),
            written: AtomicUsize::new(0),
            leaves,
            leaf_shift,
            sink: OnceLock::new(),
            probe: OnceLock::new(),
            watch: OnceLock::new(),
        }
    }

    /// Attach the durability sink. At most once per store, and only
    /// *after* recovery has finished replaying into it — a sink that saw
    /// its own replay would double every record.
    pub fn attach_sink(&self, sink: Arc<dyn DurabilitySink>) {
        if self.sink.set(sink).is_err() {
            panic!("durability sink already attached");
        }
    }

    /// Attach the observability probe (at most once). Unlike the sink there
    /// is no replay hazard — double-counted recovery writes would only skew
    /// monitoring — but the once-only discipline keeps the two attach paths
    /// symmetric.
    pub fn attach_probe(&self, probe: Arc<StoreProbe>) {
        if self.probe.set(probe).is_err() {
            panic!("store probe already attached");
        }
    }

    /// Attach a single-key watch (at most once): `f(lc, val)` runs inside
    /// every mutator that applies `key`, including recovery replay — a
    /// watcher *wants* to see replayed state (that is how a restarted node
    /// relearns its membership), unlike the sink, which must not re-record
    /// its own replay.
    pub fn attach_watch(&self, key: Key, f: Arc<dyn Fn(Lc, &Val) + Send + Sync>) {
        if self.watch.set((key.0, f)).is_err() {
            panic!("store watch already attached");
        }
    }

    /// Number of slots (diagnostics).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of keys present. O(1): maintained by the slot-claim CAS.
    // ordering: a monotone population gauge — callers use it for sizing and
    // diagnostics, never to infer that a particular key is visible.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of keys holding a **written value** — claimed-but-unwritten
    /// slots (a read probing a fresh key) excluded. Unlike [`Store::len`],
    /// this is comparable across replicas: anti-entropy converges values,
    /// not read probes.
    // ordering: same monotone-gauge contract as `len`.
    pub fn values(&self) -> usize {
        self.written.load(Ordering::Relaxed)
    }

    /// The slot `key`'s probe starts at: the multiply-shift reduction of
    /// its hash onto the slot count (see the module docs).
    #[inline]
    fn home(&self, key: Key) -> usize {
        ((key.hash() as u128 * self.slots.len() as u128) >> 64) as usize
    }

    /// The slot after `idx`, wrapping past the last one.
    #[inline]
    fn next_slot(&self, idx: usize) -> usize {
        if idx + 1 == self.slots.len() {
            0
        } else {
            idx + 1
        }
    }

    /// The leaf index of `key`'s home slot — a pure function of the key
    /// and the store geometry, identical on every replica.
    #[inline]
    pub fn leaf_of(&self, key: Key) -> usize {
        self.home(key) >> self.leaf_shift
    }

    /// Fold a clock transition `old → new` for `key` into its leaf hash.
    /// Called after the seqlock write section commits; see the module docs
    /// for why the out-of-lock XOR is still exact.
    // ordering: leaf hashes are a commutative XOR fold; sweep readers
    // tolerate transient skew by design (drill-down re-confirms on the next
    // interval), so the fetch_xor needs atomicity, not ordering.
    #[inline]
    fn leaf_apply(&self, key: Key, old: Lc, new: Lc) {
        // The ZERO → nonzero clock transition happens exactly once per key
        // (clocks are LLC-monotone and `old` was read inside the write
        // section), so this counts each first value exactly once.
        if old == Lc::ZERO && new > Lc::ZERO {
            self.written.fetch_add(1, Ordering::Relaxed);
        }
        let delta = merkle_mix(key, old) ^ merkle_mix(key, new);
        if delta != 0 {
            self.leaves[self.leaf_of(key)].fetch_xor(delta, Ordering::Relaxed);
        }
    }

    /// Feed an applied write to the durability sink, if one is attached.
    /// Sits right next to [`Store::leaf_apply`] at every mutator's exit:
    /// the WAL and the Merkle lattice observe exactly the same clock
    /// transitions, which is what makes "rebuild the lattice by replaying
    /// the WAL through the normal mutators" sound.
    #[inline]
    fn sink_apply(&self, key: Key, lc: Lc, val: &Val) {
        if let Some(probe) = self.probe.get() {
            probe.writes.incr();
            probe.distinct_keys.observe(key.0);
        }
        if let Some((watched, f)) = self.watch.get() {
            if key.0 == *watched {
                f(lc, val);
            }
        }
        if let Some(sink) = self.sink.get() {
            if let Err(e) = sink.record(key, lc, val) {
                // Fail fast: the write is already applied in memory, so
                // limping on would hand the application an acknowledged
                // update that no recovery can reproduce. Admission should
                // have rejected the value (the engines cap values at the
                // sink's frame budget); reaching here is a logic error.
                panic!("durability sink refused an applied write for {key:?}: {e}");
            }
        }
    }

    /// Locate (or claim) the record for `key`. Lock-free linear probing;
    /// panics if the table is full (a configuration error: the key space is
    /// sized at construction).
    // ordering: Acquire on the probe load pairs with the AcqRel slot-claim
    // CAS so a hit happens-after the claim that published the key; the CAS
    // failure load is Acquire for the same reason (a lost race must still
    // observe the winner's slot as claimed). The live counter is Relaxed —
    // see `len`.
    #[inline]
    fn record(&self, key: Key) -> &Record {
        debug_assert_ne!(key.0, EMPTY_KEY, "key u64::MAX is reserved");
        let mut idx = self.home(key);
        for _ in 0..self.slots.len() {
            let slot = &self.slots[idx];
            let cur = slot.key.load(Ordering::Acquire);
            if cur == key.0 {
                return &slot.record;
            }
            if cur == EMPTY_KEY {
                match slot.key.compare_exchange(
                    EMPTY_KEY,
                    key.0,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        // Exactly one CAS wins per slot: count it once.
                        self.live.fetch_add(1, Ordering::Relaxed);
                        return &slot.record;
                    }
                    Err(actual) if actual == key.0 => return &slot.record,
                    Err(_) => {} // someone else claimed this slot; keep probing
                }
            }
            idx = self.next_slot(idx);
        }
        panic!("store capacity exhausted: {} slots", self.slots.len());
    }

    /// Hint that `key` is about to be looked up: ask the CPU to start
    /// loading the key's *home* slot (see the module docs). Reads nothing,
    /// claims nothing, and is free to be wrong — a displaced key's lookup
    /// still starts at the home slot, so the hint covers its first probe.
    #[inline]
    // kite-lint: no-alloc
    pub fn prefetch(&self, key: Key) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // A slot is one line-aligned cache line (see `Slot`): one hint.
            let slot: *const Slot = &self.slots[self.home(key)];
            // SAFETY: `slot` points at an in-bounds element of `self.slots`;
            // a prefetch dereferences nothing, and SSE is baseline on x86-64.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(slot.cast::<i8>()) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = key;
    }

    /// Number of keys holding an extension (a value longer than the
    /// slot's inline bytes, or a Paxos structure). O(1).
    pub fn exts(&self) -> usize {
        self.exts.len()
    }

    // ---- reads -----------------------------------------------------------

    /// Consistent snapshot of `(value, clock, epoch)`.
    #[inline]
    pub fn view(&self, key: Key) -> ReadView {
        let s = self.record(key).snapshot(&self.exts);
        ReadView { val: s.val(), lc: s.data.lc, epoch: Epoch(s.data.epoch()) }
    }

    /// The key's current Lamport clock (ABD write round 1 reads just this).
    #[inline]
    pub fn read_lc(&self, key: Key) -> Lc {
        self.record(key).line().lc
    }

    // ---- writes ----------------------------------------------------------

    /// ES fast-path relaxed write (§3.2): requires the key to be in-epoch.
    /// Atomically (under the key's seqlock) verifies the epoch, stamps the
    /// write with the key's next clock owned by `mid`, and applies it.
    /// Returns the stamped clock, or `None` if the key was out-of-epoch
    /// (caller must take the slow path).
    #[inline]
    pub fn fast_write(
        &self,
        key: Key,
        val: &Val,
        mid: NodeId,
        machine_epoch: Epoch,
    ) -> Option<Lc> {
        let mut prev = Lc::ZERO;
        let stamped = self.record(key).update(&self.exts, |d| {
            if d.epoch() != machine_epoch.0 {
                return None;
            }
            prev = d.lc;
            let lc = d.lc.succ(mid);
            d.lc = lc;
            d.set_val(val);
            Some(lc)
        });
        if let Some(lc) = stamped {
            self.leaf_apply(key, prev, lc);
            self.sink_apply(key, lc, val);
        }
        stamped
    }

    /// Apply a remote or protocol write iff its clock beats the stored one
    /// (the LLC write-serialization rule shared by ES and ABD). Returns
    /// whether the write was applied. Never touches the epoch.
    #[inline]
    pub fn apply_max(&self, key: Key, val: &Val, lc: Lc) -> bool {
        let mut prev = Lc::ZERO;
        let applied = self.record(key).update(&self.exts, |d| {
            if lc > d.lc {
                prev = d.lc;
                d.lc = lc;
                d.set_val(val);
                true
            } else {
                false
            }
        });
        if applied {
            self.leaf_apply(key, prev, lc);
            self.sink_apply(key, lc, val);
        }
        applied
    }

    /// Slow-path completion (§4.2 "Returning to fast path"): apply the
    /// freshest value (LLC-max rule) *and* advance the key's epoch to the
    /// machine-epoch snapshot taken when the slow-path access started. The
    /// epoch only moves forward; if the machine epoch was bumped while the
    /// slow-path access was in flight, the stale snapshot leaves the key
    /// out-of-epoch, exactly as the paper requires.
    #[inline]
    pub fn apply_max_restore(&self, key: Key, val: &Val, lc: Lc, snapshot: Epoch) -> bool {
        let mut prev = Lc::ZERO;
        let applied = self.record(key).update(&self.exts, |d| {
            let applied = if lc > d.lc {
                prev = d.lc;
                d.lc = lc;
                d.set_val(val);
                true
            } else {
                false
            };
            if snapshot.0 > d.epoch() {
                d.set_epoch(snapshot.0);
            }
            applied
        });
        if applied {
            self.leaf_apply(key, prev, lc);
            self.sink_apply(key, lc, val);
        }
        applied
    }

    /// Atomically **mint and apply** a locally stamped protocol write:
    /// under the key's seqlock, stamp `max(floor, current_clock).succ(mid)`,
    /// apply the value (unconditional — the stamp dominates the stored
    /// clock by construction), optionally advance the key's epoch to
    /// `snapshot`, and return the stamp used.
    ///
    /// Minting under the *same* lock as the apply is what makes locally
    /// minted stamps unique per key: a gather-then-`succ` outside the lock
    /// can collide with a concurrent fast write's `succ` of the same
    /// observed clock — two different values under one `(version, mid)`
    /// stamp, which replicas then split on *permanently* (LLC-max treats
    /// equal stamps as converged, so no repair can ever heal it; found by
    /// the anti-entropy divergence-fuzzing harness). Under the lock, every
    /// local mint strictly raises the stored clock, so no two can be equal.
    #[inline]
    pub fn stamp_apply(
        &self,
        key: Key,
        val: &Val,
        floor: Lc,
        mid: NodeId,
        snapshot: Option<Epoch>,
    ) -> Lc {
        let mut prev = Lc::ZERO;
        let lc = self.record(key).update(&self.exts, |d| {
            prev = d.lc;
            let lc = d.lc.max(floor).succ(mid);
            d.lc = lc;
            d.set_val(val);
            if let Some(s) = snapshot {
                if s.0 > d.epoch() {
                    d.set_epoch(s.0);
                }
            }
            lc
        });
        self.leaf_apply(key, prev, lc);
        self.sink_apply(key, lc, val);
        lc
    }

    /// Advance only the key's epoch to `snapshot` (slow-path read that found
    /// the local value already freshest).
    #[inline]
    pub fn restore_epoch(&self, key: Key, snapshot: Epoch) {
        self.record(key).update(&self.exts, |d| {
            if snapshot.0 > d.epoch() {
                d.set_epoch(snapshot.0);
            }
        });
    }

    /// Unconditional ordered overwrite — for baselines that serialize writes
    /// externally (ZAB applies in zxid order; Derecho in delivery order).
    /// The provided clock is stored as-is.
    #[inline]
    pub fn apply_ordered(&self, key: Key, val: &Val, lc: Lc) {
        let mut prev = Lc::ZERO;
        self.record(key).update(&self.exts, |d| {
            prev = d.lc;
            d.lc = lc;
            d.set_val(val);
        });
        self.leaf_apply(key, prev, lc);
        self.sink_apply(key, lc, val);
    }

    // ---- Paxos -----------------------------------------------------------

    /// The key's Paxos structure (lazily allocated on first RMW, §6.2), in
    /// the key's extension — the one its long values use, if it has one.
    #[inline]
    pub fn paxos(&self, key: Key) -> &Mutex<PaxosMeta> {
        self.record(key).ext(&self.exts).paxos()
    }

    /// The key's Paxos structure iff one was ever allocated — lets
    /// read-only paths consult it without allocating anything.
    #[inline]
    fn paxos_if_allocated(&self, key: Key) -> Option<&Mutex<PaxosMeta>> {
        self.record(key).ext_if_allocated(&self.exts)?.paxos.get()
    }

    /// The key's next undecided Paxos slot, without allocating the Paxos
    /// structure for keys that never carried an RMW (those report 0).
    #[inline]
    pub fn paxos_next_slot(&self, key: Key) -> u64 {
        self.paxos_if_allocated(key).map(|m| m.lock().slot).unwrap_or(0)
    }

    /// The key's `(next undecided slot, committed ring)` read under one
    /// lock — the evidence pair an anti-entropy repair ships so a receiver
    /// never advances its slot without the matching dedup entries. Keys
    /// that never carried an RMW report `(0, [])` without allocating.
    pub fn paxos_evidence(&self, key: Key) -> (u64, Vec<crate::paxos_meta::RmwCommit>) {
        match self.paxos_if_allocated(key) {
            None => (0, Vec::new()),
            Some(m) => {
                let m = m.lock();
                (m.slot, m.committed.iter().cloned().collect())
            }
        }
    }

    // ---- anti-entropy digests -------------------------------------------

    /// Append `(key, lc)` for every live slot in `[start, start + slots)`
    /// (clamped to capacity) to `out` — the per-slot-range digest the
    /// anti-entropy sweep exchanges. O(slots), lock-free: one atomic key
    /// load plus one seqlock snapshot per live slot, so writers are never
    /// blocked and a torn read is impossible. Returns the next start index,
    /// wrapping to 0 past the end (callers keep a cursor).
    ///
    /// `Lc::ZERO` entries are **included deliberately**: "I hold nothing
    /// for this key" is what lets a woken §8.4 sleeper advertise the keys
    /// it slept through so a fresh peer pushes them back — a replica
    /// cannot tell locally whether ZERO means "never written anywhere"
    /// or "I missed every write".
    ///
    /// Slot indices are **local**: two replicas holding the same keys may
    /// place them in different slots (insertion-order-dependent probing),
    /// so digests diff by *key*, never by slot position.
    // ordering: Acquire pairs with the slot-claim CAS — a non-empty key
    // read here guarantees the record it names is initialized. The per-key
    // clock itself is read under the record's seqlock, not this atomic.
    pub fn digest_range(&self, start: usize, slots: usize, out: &mut Vec<(Key, Lc)>) -> usize {
        let cap = self.slots.len();
        let start = start.min(cap);
        let end = (start + slots).min(cap);
        for slot in &self.slots[start..end] {
            let key = slot.key.load(Ordering::Acquire);
            if key != EMPTY_KEY {
                out.push((Key(key), slot.record.line().lc));
            }
        }
        if end >= cap {
            0
        } else {
            end
        }
    }

    /// Visit every written entry as a consistent `(key, lc, val)` triple —
    /// the snapshot-dump iteration the WAL's log-truncating checkpoint
    /// uses. Same lock-free read discipline as [`Store::digest_range`]
    /// (one atomic key load + one seqlock snapshot per live slot), so a
    /// dump never blocks writers; entries written *during* the walk may or
    /// may not appear, which is safe because the WAL segments covering the
    /// walk are only deleted once the dump is durable and replay is
    /// idempotent under LLC-max. `Lc::ZERO` entries (claimed, never
    /// written) are skipped: they hold no durable state.
    // ordering: same Acquire-pairs-with-claim-CAS contract as
    // `digest_range`; the dump is explicitly not a point-in-time cut.
    pub fn for_each_entry(&self, mut f: impl FnMut(Key, Lc, &Val)) {
        for slot in self.slots.iter() {
            let k = slot.key.load(Ordering::Acquire);
            if k == EMPTY_KEY {
                continue;
            }
            let s = slot.record.snapshot(&self.exts);
            if s.data.lc == Lc::ZERO {
                continue;
            }
            let val = s.val();
            f(Key(k), s.data.lc, &val);
        }
    }

    // ---- Merkle leaf lattice ---------------------------------------------

    /// Number of Merkle leaves: `capacity / LEAF_SPAN`, a whole number ≥ 1
    /// (the capacity is rounded up to whole leaves).
    #[inline]
    pub fn merkle_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// The current hash of one leaf (diagnostics/tests; range comparisons
    /// go through [`Store::fold_leaves`]).
    // ordering: diagnostics read of the XOR lattice; skew-tolerant like
    // every sweep read (see `leaf_apply`).
    #[inline]
    pub fn leaf_hash(&self, leaf: usize) -> u64 {
        self.leaves[leaf].load(Ordering::Relaxed)
    }

    /// Fold the leaf hashes in `[lo, hi)` (clamped) into one range hash —
    /// the interior levels of the Merkle lattice, computed on demand. An
    /// FNV-style sequential mix rather than a plain XOR so two differing
    /// leaves cannot cancel each other out of an interior hash. Both sides
    /// of a comparison fold the same range with the same function, so
    /// equality is exactly "same leaf hash sequence".
    // ordering: sweep-side fold over the skew-tolerant lattice (see
    // `leaf_apply`) — a transiently stale leaf costs one drill-down, never
    // correctness.
    pub fn fold_leaves(&self, lo: usize, hi: usize) -> u64 {
        let hi = hi.min(self.leaves.len());
        let lo = lo.min(hi);
        let mut acc = 0xCBF2_9CE4_8422_2325u64;
        for leaf in &self.leaves[lo..hi] {
            acc = (acc ^ leaf.load(Ordering::Relaxed)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        acc
    }

    /// Append `(key, lc)` for every live slot whose **home** position lies
    /// in leaf `leaf` — the flat digest a Merkle drill-down bottoms out in.
    /// Linear probing can displace a key forward of its home (never
    /// backward), but only through a contiguous run of occupied slots, so
    /// the scan covers the leaf's slot range and then keeps going (with
    /// wraparound) until the occupied run past the range ends, filtering by
    /// home leaf. Lock-free, same read discipline as
    /// [`Store::digest_range`]; `Lc::ZERO` entries are included for
    /// consistency with it (receivers treat them as "holds nothing").
    // ordering: Acquire pairs with the slot-claim CAS, as in
    // `digest_range`.
    pub fn digest_leaf(&self, leaf: usize, out: &mut Vec<(Key, Lc)>) {
        let cap = self.slots.len();
        let span = 1usize << self.leaf_shift;
        let start = leaf * span;
        if start >= cap {
            return;
        }
        let mut idx = start;
        for pos in 0..cap {
            let k = self.slots[idx].key.load(Ordering::Acquire);
            if k == EMPTY_KEY {
                if pos >= span {
                    // Past the leaf's own range and the occupied run ended:
                    // no further key with a home in this leaf can exist.
                    break;
                }
            } else {
                let key = Key(k);
                if self.leaf_of(key) == leaf {
                    out.push((key, self.slots[idx].record.line().lc));
                }
            }
            idx = self.next_slot(idx);
        }
    }

    /// The key's clock iff the key is already present — a **non-claiming**
    /// probe, unlike every other accessor (which allocate the slot on first
    /// touch). Anti-entropy digest diffs use this so a digest mentioning a
    /// key this replica has never touched does not claim a slot here; the
    /// slot is claimed only if a repair actually adopts the key.
    // ordering: Acquire pairs with the slot-claim CAS, as in `record`; a
    // miss is answered from the probe chain without claiming anything.
    pub fn probe_lc(&self, key: Key) -> Option<Lc> {
        debug_assert_ne!(key.0, EMPTY_KEY, "key u64::MAX is reserved");
        let mut idx = self.home(key);
        for _ in 0..self.slots.len() {
            let slot = &self.slots[idx];
            match slot.key.load(Ordering::Acquire) {
                cur if cur == key.0 => return Some(slot.record.line().lc),
                // A concurrent claim of this very slot may race us to
                // `None` — fine: "absent" is always a safe answer (the
                // caller pulls, and the repair path claims properly).
                EMPTY_KEY => return None,
                _ => idx = self.next_slot(idx),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Store {
        Store::new(1024)
    }

    #[test]
    fn view_of_fresh_key_is_empty_at_lc_zero() {
        let s = store();
        let v = s.view(Key(5));
        assert_eq!(v.val, Val::EMPTY);
        assert_eq!(v.lc, Lc::ZERO);
        assert_eq!(v.epoch, Epoch::ZERO);
    }

    #[test]
    fn fast_write_stamps_increasing_clocks() {
        let s = store();
        let lc1 = s.fast_write(Key(1), &Val::from_u64(10), NodeId(2), Epoch::ZERO).unwrap();
        let lc2 = s.fast_write(Key(1), &Val::from_u64(20), NodeId(2), Epoch::ZERO).unwrap();
        assert!(lc2 > lc1);
        assert_eq!(lc1.owner(), NodeId(2));
        assert_eq!(s.view(Key(1)).val.as_u64(), 20);
    }

    #[test]
    fn fast_write_refuses_out_of_epoch_key() {
        let s = store();
        // machine epoch moved to 1, key still at 0
        assert!(s.fast_write(Key(1), &Val::from_u64(1), NodeId(0), Epoch(1)).is_none());
        // restoring the epoch re-enables the fast path
        s.restore_epoch(Key(1), Epoch(1));
        assert!(s.fast_write(Key(1), &Val::from_u64(1), NodeId(0), Epoch(1)).is_some());
    }

    #[test]
    fn apply_max_is_llc_ordered() {
        let s = store();
        let hi = Lc::new(5, NodeId(1));
        let lo = Lc::new(3, NodeId(4));
        assert!(s.apply_max(Key(9), &Val::from_u64(50), hi));
        assert!(!s.apply_max(Key(9), &Val::from_u64(30), lo), "stale write rejected");
        assert_eq!(s.view(Key(9)).val.as_u64(), 50);
        // equal clock is also rejected (idempotent redelivery)
        assert!(!s.apply_max(Key(9), &Val::from_u64(99), hi));
        assert_eq!(s.view(Key(9)).val.as_u64(), 50);
    }

    #[test]
    fn apply_max_ties_break_on_machine_id() {
        let s = store();
        assert!(s.apply_max(Key(2), &Val::from_u64(1), Lc::new(7, NodeId(1))));
        assert!(s.apply_max(Key(2), &Val::from_u64(2), Lc::new(7, NodeId(3))));
        assert_eq!(s.view(Key(2)).val.as_u64(), 2, "higher mid wins the tie");
    }

    #[test]
    fn restore_epoch_never_regresses() {
        let s = store();
        s.restore_epoch(Key(3), Epoch(5));
        s.restore_epoch(Key(3), Epoch(2));
        assert_eq!(s.view(Key(3)).epoch, Epoch(5));
    }

    #[test]
    fn apply_max_restore_combines_value_and_epoch() {
        let s = store();
        let lc = Lc::new(4, NodeId(0));
        assert!(s.apply_max_restore(Key(7), &Val::from_u64(44), lc, Epoch(2)));
        let v = s.view(Key(7));
        assert_eq!(v.val.as_u64(), 44);
        assert_eq!(v.epoch, Epoch(2));
        // stale value still advances epoch (the read found local freshest)
        assert!(!s.apply_max_restore(Key(7), &Val::from_u64(1), Lc::new(1, NodeId(1)), Epoch(3)));
        assert_eq!(s.view(Key(7)).epoch, Epoch(3));
        assert_eq!(s.view(Key(7)).val.as_u64(), 44);
    }

    #[test]
    fn apply_ordered_overwrites_unconditionally() {
        let s = store();
        s.apply_ordered(Key(1), &Val::from_u64(9), Lc::new(100, NodeId(0)));
        s.apply_ordered(Key(1), &Val::from_u64(3), Lc::new(2, NodeId(0)));
        assert_eq!(s.view(Key(1)).val.as_u64(), 3, "external order wins, not LLC");
    }

    #[test]
    fn paxos_meta_is_per_key() {
        let s = store();
        s.paxos(Key(1)).lock().slot = 7;
        assert_eq!(s.paxos(Key(1)).lock().slot, 7);
        assert_eq!(s.paxos(Key(2)).lock().slot, 0);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let s = Store::new(4096);
        for k in 0..4096u64 {
            s.fast_write(Key(k), &Val::from_u64(k), NodeId(0), Epoch::ZERO);
        }
        for k in 0..4096u64 {
            assert_eq!(s.view(Key(k)).val.as_u64(), k);
        }
        assert_eq!(s.len(), 4096);
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn table_overflow_panics() {
        let s = Store::new(16); // capacity 64: one leaf
        for k in 0..65u64 {
            s.view(Key(k));
        }
    }

    #[test]
    fn digest_range_covers_live_slots_and_wraps() {
        let s = Store::new(16); // capacity 64
        for k in 0..10u64 {
            s.fast_write(Key(k), &Val::from_u64(k), NodeId(1), Epoch::ZERO);
        }
        // Walk the whole store in chunks; every live key appears exactly
        // once per cycle, empty slots contribute nothing.
        let mut seen = Vec::new();
        let mut cursor = 0;
        loop {
            cursor = s.digest_range(cursor, 7, &mut seen);
            if cursor == 0 {
                break;
            }
        }
        assert_eq!(seen.len(), 10);
        let mut keys: Vec<u64> = seen.iter().map(|(k, _)| k.0).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
        for (k, lc) in &seen {
            assert_eq!(*lc, s.view(*k).lc, "digest clock must match the store");
            assert_eq!(lc.owner(), NodeId(1));
        }
        // Clamped: a cursor at/past capacity yields nothing and wraps.
        let mut none = Vec::new();
        assert_eq!(s.digest_range(s.capacity(), 8, &mut none), 0);
        assert!(none.is_empty());
        // A claimed-but-unwritten key rides the digest at Lc::ZERO — the
        // "I hold nothing" advertisement a fresh peer answers with a push.
        s.view(Key(99));
        let mut again = Vec::new();
        let mut cursor = 0;
        loop {
            cursor = s.digest_range(cursor, 7, &mut again);
            if cursor == 0 {
                break;
            }
        }
        assert_eq!(again.len(), 11);
        assert!(again.contains(&(Key(99), Lc::ZERO)));
    }

    #[test]
    fn probe_lc_never_claims() {
        let s = store();
        let before = s.len();
        assert_eq!(s.probe_lc(Key(123)), None, "absent key stays absent");
        assert_eq!(s.len(), before, "probe must not claim a slot");
        s.apply_max(Key(123), &Val::from_u64(9), Lc::new(4, NodeId(1)));
        assert_eq!(s.probe_lc(Key(123)), Some(Lc::new(4, NodeId(1))));
    }

    #[test]
    fn prefetch_is_invisible() {
        let s = Store::with_leaf_span(16, 2); // capacity 64, 32 leaves
        let home = |k: u64| s.home(Key(k));
        // Two keys sharing a home slot (the second one is displaced), one
        // whose home is the last slot of the array, and one never touched.
        let first = 1u64;
        let displaced = (2..).find(|&k| home(k) == home(first)).unwrap();
        let last = (2..).find(|&k| home(k) == s.capacity() - 1 && k != displaced).unwrap();
        let absent = (2..).find(|&k| ![displaced, last].contains(&k)).unwrap();
        let present = [first, displaced, last];
        for (i, &k) in present.iter().enumerate() {
            s.apply_max(Key(k), &Val::from_u64(k), Lc::new(i as u64 + 1, NodeId(1)));
        }
        let observe = || {
            let mut slots = Vec::new();
            s.digest_range(0, s.capacity(), &mut slots);
            let views: Vec<_> = present
                .iter()
                .map(|&k| s.view(Key(k)))
                .map(|v| (v.val.as_u64(), v.lc, v.epoch))
                .collect();
            let leaves: Vec<u64> = (0..s.merkle_leaves()).map(|l| s.leaf_hash(l)).collect();
            (s.len(), s.values(), slots, views, leaves, s.probe_lc(Key(absent)))
        };
        let before = observe();
        assert_eq!((before.0, before.1, before.5), (3, 3, None));
        for _ in 0..3 {
            for k in [first, displaced, last, absent] {
                s.prefetch(Key(k));
            }
        }
        assert_eq!(observe(), before, "a hint changed what the store holds");
    }

    #[test]
    fn digest_range_is_lock_free_against_writers() {
        use std::sync::Arc;
        let s = Arc::new(Store::new(256));
        for k in 0..100u64 {
            s.fast_write(Key(k), &Val::from_u64(k), NodeId(0), Epoch::ZERO);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let (s, stop) = (Arc::clone(&s), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut i = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    s.apply_max(Key(i % 100), &Val::from_u64(i), Lc::new(i, NodeId(2)));
                }
            })
        };
        for _ in 0..200 {
            let mut out = Vec::new();
            let mut cursor = 0;
            loop {
                cursor = s.digest_range(cursor, 64, &mut out);
                if cursor == 0 {
                    break;
                }
            }
            assert_eq!(out.len(), 100, "live population is stable while values churn");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn paxos_next_slot_reads_without_allocating() {
        let s = store();
        s.view(Key(5)); // claim the slot, no Paxos yet
        assert_eq!(s.paxos_next_slot(Key(5)), 0);
        s.paxos(Key(5)).lock().advance_past(3);
        assert_eq!(s.paxos_next_slot(Key(5)), 4);
        // A never-RMWed key still reports 0 (and still has no Paxos box).
        assert_eq!(s.paxos_next_slot(Key(6)), 0);
    }

    /// A `len`-byte value whose bytes differ by position and by `tag`.
    fn val_of(len: usize, tag: u8) -> Val {
        let bytes: Vec<u8> = (0..len).map(|i| tag.wrapping_mul(31).wrapping_add(i as u8)).collect();
        Val::from_bytes(&bytes)
    }

    /// Lengths on both sides of the slot's inline bytes and of `MAX_VAL`.
    const LENS: [usize; 7] = [0, 1, 31, 32, 33, 63, 64];

    #[test]
    fn every_value_length_round_trips_through_every_mutator() {
        use crate::record::HEAD;
        let s = store();
        let key = |i: usize, m: u64| Key(100 * i as u64 + m);
        for (i, &len) in LENS.iter().enumerate() {
            let v = val_of(len, i as u8 + 1);
            s.fast_write(key(i, 0), &v, NodeId(1), Epoch::ZERO).unwrap();
            assert!(s.apply_max(key(i, 1), &v, Lc::new(3, NodeId(1))));
            assert!(s.apply_max_restore(key(i, 2), &v, Lc::new(3, NodeId(1)), Epoch(2)));
            s.stamp_apply(key(i, 3), &v, Lc::ZERO, NodeId(1), Some(Epoch(1)));
            s.apply_ordered(key(i, 4), &v, Lc::new(5, NodeId(0)));
            for m in 0..5 {
                assert_eq!(s.view(key(i, m)).val, v, "{len}-byte value through mutator {m}");
            }
        }
        let spilled = LENS.iter().filter(|&&len| len > HEAD).count();
        assert_eq!(s.exts(), 5 * spilled, "one extension per key whose value spilled");
        let mut dump = Vec::new();
        s.for_each_entry(|k, _, v| dump.push((k.0, v.clone())));
        dump.sort_unstable_by_key(|(k, _)| *k);
        let expect: Vec<(u64, Val)> = (0..LENS.len())
            .flat_map(|i| (0..5).map(move |m| (key(i, m).0, val_of(LENS[i], i as u8 + 1))))
            .collect();
        assert_eq!(dump, expect, "for_each_entry hands out whole values");
    }

    #[test]
    fn a_shrunk_value_leaves_no_stale_tail() {
        let s = store();
        for (i, len) in [64, 8, 40].into_iter().enumerate() {
            let v = val_of(len, i as u8 + 1);
            s.apply_ordered(Key(1), &v, Lc::new(i as u64 + 1, NodeId(0)));
            assert_eq!(s.view(Key(1)).val.as_bytes(), v.as_bytes(), "after the {len}-byte write");
        }
        assert_eq!(s.exts(), 1, "the key kept its one extension");
    }

    #[test]
    fn a_spilled_key_reports_no_paxos_state_and_allocates_none() {
        let s = store();
        s.apply_max(Key(1), &val_of(40, 1), Lc::new(1, NodeId(0)));
        assert_eq!(s.paxos_next_slot(Key(1)), 0);
        let (slot, ring) = s.paxos_evidence(Key(1));
        assert_eq!((slot, ring.len()), (0, 0));
        let ext = s.record(Key(1)).ext_if_allocated(&s.exts).expect("the value spilled");
        assert!(ext.paxos.get().is_none(), "a read-only Paxos query allocated the structure");
        assert_eq!(s.exts(), 1);
    }

    #[test]
    fn an_rmw_on_a_spilled_key_reuses_its_extension() {
        let s = store();
        s.apply_max(Key(1), &val_of(40, 1), Lc::new(1, NodeId(0)));
        s.paxos(Key(1)).lock().advance_past(0);
        assert_eq!(s.exts(), 1, "the RMW took the spilled value's extension");
        assert_eq!(s.paxos_next_slot(Key(1)), 1);
        assert_eq!(s.view(Key(1)).val, val_of(40, 1), "the tail is untouched");
        // The other order: a key whose RMW came first spills into the same
        // extension, and keeps its Paxos state.
        s.paxos(Key(2)).lock().advance_past(4);
        assert_eq!(s.exts(), 2);
        s.apply_max(Key(2), &val_of(64, 2), Lc::new(1, NodeId(0)));
        assert_eq!(s.exts(), 2);
        assert_eq!((s.view(Key(2)).val, s.paxos_next_slot(Key(2))), (val_of(64, 2), 5));
    }

    #[test]
    #[should_panic(expected = "extension index")]
    fn a_store_wider_than_the_extension_index_panics() {
        // The smallest key count whose slots outnumber what a 24-bit index
        // (0 = none) can name: 11 184 769 keys, 2^24 slots.
        let keys = (ClusterConfig::MAX_KEYS..).find(|&k| capacity(k) > MAX_EXTS).unwrap();
        assert!(capacity(keys - 1) <= MAX_EXTS);
        Store::new(keys);
    }

    #[test]
    fn a_store_off_the_power_of_two_gives_every_key_an_extension() {
        let s = Store::new(100);
        assert_eq!(s.capacity(), 192);
        for k in 0..100u64 {
            s.paxos(Key(k));
        }
        assert_eq!(s.exts(), 100);
        // ... and so does every other slot of the store.
        for k in 100..192u64 {
            s.paxos(Key(k));
        }
        assert_eq!((s.len(), s.exts()), (192, 192));
    }

    #[test]
    fn capacity_is_one_and_a_half_keys_rounded_to_a_leaf() {
        let counts = [12, 16].into_iter().flat_map(|k| [(1 << k) - 1, 1 << k, (1 << k) + 1]);
        for keys in counts.chain([70_000]) {
            let bound = (1.5 * keys as f64 / LEAF_SPAN as f64).ceil() as usize * LEAF_SPAN;
            let s = Store::new(keys);
            assert!(s.capacity() <= bound, "{keys} keys: {} slots > {bound}", s.capacity());
            assert!(2 * s.capacity() >= 3 * keys, "{keys} keys: a full store is over 2/3 loaded");
            assert_eq!(s.merkle_leaves() * LEAF_SPAN, s.capacity(), "{keys} keys: a partial leaf");
        }
        assert_eq!(capacity(70_000), 105_024);
        assert_eq!((capacity(0), capacity(1)), (LEAF_SPAN, LEAF_SPAN));
    }

    #[test]
    fn a_full_store_claims_every_key_close_to_home() {
        const KEYS: usize = 1 << 16;
        let s = Store::new(KEYS);
        // The workload's keys plus 64 reserved ones at the top of the key
        // space, where the membership key lives.
        let keys = (0..KEYS as u64).chain((1..=64).map(|i| u64::MAX - i));
        for k in keys.clone() {
            s.view(Key(k));
        }
        assert_eq!(s.len(), KEYS + 64);
        let cap = s.capacity();
        let mut displacement = Vec::with_capacity(KEYS + 64);
        for (idx, slot) in s.slots.iter().enumerate() {
            let k = slot.key.load(Ordering::Relaxed);
            if k != EMPTY_KEY {
                displacement.push((idx + cap - s.home(Key(k))) % cap);
            }
        }
        assert_eq!(displacement.len(), KEYS + 64);
        let mean = displacement.iter().sum::<usize>() as f64 / displacement.len() as f64;
        let max = *displacement.iter().max().unwrap();
        println!("{KEYS} keys + 64 in {cap} slots: displacement mean {mean:.3}, max {max}");
        // Uniform homes at load 2/3 expect a mean displacement of 1.0
        // (2 probes per hit); a skewed reduction piles keys into long runs.
        assert!(mean < 1.5, "mean displacement {mean:.3}");
        for k in keys {
            assert_eq!(s.probe_lc(Key(k)), Some(Lc::ZERO), "{k} lost");
        }
    }

    #[test]
    fn concurrent_writers_to_disjoint_keys() {
        use std::sync::Arc;
        let s = Arc::new(Store::new(1 << 14));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    let k = Key(t * 10_000 + i);
                    s.fast_write(k, &Val::from_u64(i), NodeId(t as u8), Epoch::ZERO);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            for i in (0..2000u64).step_by(97) {
                assert_eq!(s.view(Key(t * 10_000 + i)).val.as_u64(), i);
            }
        }
    }

    #[test]
    fn len_counts_each_key_once_under_concurrent_claims() {
        use std::sync::Arc;
        let s = Arc::new(Store::new(1 << 10));
        let mut handles = Vec::new();
        // Four threads race to claim the same 256 keys: the population
        // counter must count each slot exactly once (only the winning CAS
        // increments).
        for t in 0..4u8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for k in 0..256u64 {
                    s.fast_write(Key(k), &Val::from_u64(k), NodeId(t), Epoch::ZERO);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 256);
        assert!(!s.is_empty());
    }

    /// Recompute a leaf hash from scratch (XOR of `merkle_mix` over the
    /// leaf's members) — the quiescent-state ground truth the incremental
    /// lattice must match.
    fn recompute_leaf(s: &Store, leaf: usize) -> u64 {
        let mut entries = Vec::new();
        s.digest_leaf(leaf, &mut entries);
        entries.iter().fold(0u64, |acc, &(k, lc)| acc ^ merkle_mix(k, lc))
    }

    #[test]
    fn stamp_apply_mints_unique_stamps_under_races() {
        use std::sync::Arc;
        use std::sync::Mutex as StdMutex;
        // A gather-then-succ outside the lock can reuse a stamp a racing
        // fast write just minted; stamp_apply must never. Hammer one key
        // from fast-writers and stamp-appliers and assert every locally
        // minted stamp is distinct.
        let s = Arc::new(Store::new(64));
        let stamps = Arc::new(StdMutex::new(Vec::<Lc>::new()));
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let (s, stamps) = (Arc::clone(&s), Arc::clone(&stamps));
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                for i in 0..2000u64 {
                    let lc = if t % 2 == 0 {
                        s.fast_write(Key(1), &Val::from_u64(i), NodeId(0), Epoch::ZERO).unwrap()
                    } else {
                        // A deliberately stale floor: the lock, not the
                        // floor, must guarantee uniqueness.
                        s.stamp_apply(Key(1), &Val::from_u64(i), Lc::ZERO, NodeId(0), None)
                    };
                    mine.push(lc);
                }
                stamps.lock().unwrap().append(&mut mine);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all = stamps.lock().unwrap().clone();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "two local mints produced the same stamp");
        // And the floor is still honored when it dominates.
        let lc = s.stamp_apply(Key(2), &Val::from_u64(1), Lc::new(50, NodeId(3)), NodeId(1), None);
        assert_eq!(lc, Lc::new(51, NodeId(1)));
        // The epoch restore rides the same lock.
        s.stamp_apply(Key(2), &Val::from_u64(2), Lc::ZERO, NodeId(1), Some(Epoch(4)));
        assert_eq!(s.view(Key(2)).epoch, Epoch(4));
    }

    #[test]
    fn rmw_mints_never_collide_with_relaxed_mints() {
        use std::sync::Arc;
        use std::sync::Mutex as StdMutex;
        // RMW commit stamps are minted at Paxos decide time *outside* the
        // key's seqlock (gather here, apply at commit), so unlike
        // stamp_apply the lock cannot save them from reusing a (version,
        // owner) pair a racing fast write just minted. The mid-bit
        // partition (`Lc::succ_rmw`) must: the two classes live in
        // disjoint halves of the stamp space.
        //
        // Deterministic pin first — force the exact race outcome: a decide
        // mint from a clock observed *before* a fast write lands on the
        // same (version, owner) pair and must still differ.
        let s = store();
        let seen = s.read_lc(Key(2));
        let relaxed = s.fast_write(Key(2), &Val::from_u64(1), NodeId(0), Epoch::ZERO).unwrap();
        let decide = seen.succ_rmw(NodeId(0));
        assert_eq!(relaxed.version(), decide.version(), "the race really collides versions");
        assert_eq!(relaxed.owner(), decide.owner());
        assert_ne!(relaxed, decide, "the partition keeps the stamps distinct");
        // Now hammer one key: relaxed writers against decide-time minters.
        let s = Arc::new(store());
        let relaxed = Arc::new(StdMutex::new(Vec::<Lc>::new()));
        let rmw = Arc::new(StdMutex::new(Vec::<Lc>::new()));
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let (s, relaxed, rmw) = (Arc::clone(&s), Arc::clone(&relaxed), Arc::clone(&rmw));
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                for i in 0..2000u64 {
                    if t % 2 == 0 {
                        mine.push(
                            s.fast_write(Key(1), &Val::from_u64(i), NodeId(0), Epoch::ZERO)
                                .unwrap(),
                        );
                    } else {
                        // The decide-time sequence: gather outside the
                        // lock, mint, apply by LLC-max.
                        let lc = s.read_lc(Key(1)).succ_rmw(NodeId(0));
                        s.apply_max(Key(1), &Val::from_u64(i), lc);
                        mine.push(lc);
                    }
                }
                if t % 2 == 0 { relaxed.lock().unwrap() } else { rmw.lock().unwrap() }
                    .append(&mut mine);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let relaxed = relaxed.lock().unwrap().clone();
        let rmw = rmw.lock().unwrap().clone();
        assert!(relaxed.iter().all(|lc| !lc.is_rmw()));
        assert!(rmw.iter().all(|lc| lc.is_rmw()));
        let relaxed_set: std::collections::BTreeSet<Lc> = relaxed.iter().copied().collect();
        assert!(
            rmw.iter().all(|lc| !relaxed_set.contains(lc)),
            "an RMW commit stamp equalled a relaxed stamp"
        );
    }

    #[test]
    fn sink_sees_every_mutation_path_and_for_each_entry_matches() {
        use std::sync::Arc;
        use std::sync::Mutex as StdMutex;
        struct Tape(StdMutex<Vec<(Key, Lc, u64)>>);
        impl DurabilitySink for Tape {
            fn record(&self, key: Key, lc: Lc, val: &Val) -> Result<(), SinkError> {
                self.0.lock().unwrap().push((key, lc, val.as_u64()));
                Ok(())
            }
        }
        let s = store();
        let tape = Arc::new(Tape(StdMutex::new(Vec::new())));
        // Pre-sink writes are invisible (recovery replays before attach).
        s.apply_max(Key(9), &Val::from_u64(1), Lc::new(1, NodeId(1)));
        s.attach_sink(Arc::clone(&tape) as Arc<dyn DurabilitySink>);
        // Every mutator feeds the sink exactly when it feeds the lattice;
        // rejected applies and pure claims stay silent.
        s.fast_write(Key(1), &Val::from_u64(11), NodeId(0), Epoch::ZERO);
        s.apply_max(Key(2), &Val::from_u64(22), Lc::new(9, NodeId(1)));
        s.apply_max(Key(2), &Val::from_u64(99), Lc::new(1, NodeId(0))); // stale: no record
        s.apply_max_restore(Key(3), &Val::from_u64(33), Lc::new(4, NodeId(2)), Epoch(1));
        s.stamp_apply(Key(4), &Val::from_u64(44), Lc::ZERO, NodeId(2), None);
        s.apply_ordered(Key(5), &Val::from_u64(55), Lc::new(7, NodeId(0)));
        s.view(Key(7)); // claim only: no record
        let recs = tape.0.lock().unwrap().clone();
        let keys: Vec<u64> = recs.iter().map(|(k, _, _)| k.0).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5], "one record per applied mutation, in order");
        for (k, lc, v) in &recs {
            let view = s.view(*k);
            assert_eq!((view.lc, view.val.as_u64()), (*lc, *v), "sink record matches store");
        }
        // for_each_entry dumps exactly the written entries (the claimed
        // Key(7) at Lc::ZERO is skipped) and agrees with view().
        let mut dump = Vec::new();
        s.for_each_entry(|k, lc, v| dump.push((k.0, lc, v.as_u64())));
        dump.sort_unstable();
        let mut expect: Vec<(u64, Lc, u64)> = recs
            .iter()
            .map(|(k, lc, v)| (k.0, *lc, *v))
            .chain(std::iter::once((9u64, Lc::new(1, NodeId(1)), 1u64)))
            .collect();
        expect.sort_unstable();
        assert_eq!(dump, expect);
    }

    #[test]
    fn leaf_hashes_track_every_mutation_path() {
        let s = Store::new(256);
        // Claims alone leave the lattice untouched (mix(_, ZERO) = 0).
        s.view(Key(1));
        assert!((0..s.merkle_leaves()).all(|l| s.leaf_hash(l) == 0));
        // Every mutator feeds the lattice: fast_write, apply_max,
        // apply_max_restore, apply_ordered (including clock *decreases*).
        s.fast_write(Key(1), &Val::from_u64(1), NodeId(0), Epoch::ZERO);
        s.apply_max(Key(2), &Val::from_u64(2), Lc::new(9, NodeId(1)));
        s.apply_max_restore(Key(3), &Val::from_u64(3), Lc::new(4, NodeId(2)), Epoch(1));
        s.apply_ordered(Key(4), &Val::from_u64(4), Lc::new(100, NodeId(0)));
        s.apply_ordered(Key(4), &Val::from_u64(5), Lc::new(2, NodeId(0)));
        // A rejected stale apply must not perturb the lattice.
        s.apply_max(Key(2), &Val::from_u64(7), Lc::new(1, NodeId(0)));
        for leaf in 0..s.merkle_leaves() {
            assert_eq!(
                s.leaf_hash(leaf),
                recompute_leaf(&s, leaf),
                "leaf {leaf} diverged from ground truth"
            );
        }
    }

    #[test]
    fn lattices_match_across_insertion_orders() {
        // Two replicas holding the same (key, lc) set must fold identically
        // even though probing placed the keys in different physical slots.
        let a = Store::new(64);
        let b = Store::new(64);
        let writes: Vec<(u64, u64)> = (0..100).map(|i| (i % 40, i + 1)).collect();
        for &(k, v) in &writes {
            a.apply_max(Key(k), &Val::from_u64(v), Lc::new(v, NodeId(0)));
        }
        for &(k, v) in writes.iter().rev() {
            a.apply_max(Key(k), &Val::from_u64(v), Lc::new(v, NodeId(0)));
            b.apply_max(Key(k), &Val::from_u64(v), Lc::new(v, NodeId(0)));
        }
        // b additionally claimed (but never wrote) extra keys: invisible.
        b.view(Key(1000));
        assert_eq!(a.merkle_leaves(), b.merkle_leaves());
        for leaf in 0..a.merkle_leaves() {
            assert_eq!(a.leaf_hash(leaf), b.leaf_hash(leaf), "leaf {leaf}");
        }
        assert_eq!(a.fold_leaves(0, a.merkle_leaves()), b.fold_leaves(0, b.merkle_leaves()));
        // ... and one divergent write is visible in exactly that key's leaf.
        b.apply_max(Key(7), &Val::from_u64(999), Lc::new(999, NodeId(2)));
        let diff: Vec<usize> = (0..a.merkle_leaves())
            .filter(|&l| a.leaf_hash(l) != b.leaf_hash(l))
            .collect();
        assert_eq!(diff, vec![a.leaf_of(Key(7))]);
    }

    #[test]
    fn digest_leaf_finds_displaced_keys() {
        // Small span so probe chains cross leaf boundaries: every live key
        // must appear in exactly the digest of its *home* leaf.
        let s = Store::with_leaf_span(16, 2); // capacity 64, 32 leaves
        for k in 0..30u64 {
            s.apply_max(Key(k), &Val::from_u64(k), Lc::new(k + 1, NodeId(0)));
        }
        let mut all = Vec::new();
        for leaf in 0..s.merkle_leaves() {
            let before = all.len();
            s.digest_leaf(leaf, &mut all);
            for &(k, _) in &all[before..] {
                assert_eq!(s.leaf_of(k), leaf, "{k} digested under the wrong leaf");
            }
        }
        let mut keys: Vec<u64> = all.iter().map(|(k, _)| k.0).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..30).collect::<Vec<_>>(), "every key in exactly one leaf digest");
    }

    #[test]
    fn concurrent_writers_keep_the_lattice_exact() {
        use std::sync::Arc;
        let s = Arc::new(Store::new(1 << 10));
        let mut handles = Vec::new();
        // Contended apply_max on a shared key set from four threads: after
        // the dust settles, every leaf must equal its recomputed ground
        // truth (the XOR deltas telescope regardless of interleaving).
        for t in 0..4u8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..4000u64 {
                    let k = Key(i % 128);
                    s.apply_max(Key(k.0), &Val::from_u64(i), Lc::new(i / 7 + 1, NodeId(t)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for leaf in 0..s.merkle_leaves() {
            assert_eq!(s.leaf_hash(leaf), recompute_leaf(&s, leaf), "leaf {leaf} torn");
        }
    }

    #[test]
    fn fold_leaves_clamps_and_distinguishes_ranges() {
        let s = Store::new(256);
        let n = s.merkle_leaves();
        // Folding an empty/out-of-range span is total, never panics.
        assert_eq!(s.fold_leaves(n, n + 10), s.fold_leaves(5, 5));
        let before = s.fold_leaves(0, n);
        s.apply_max(Key(42), &Val::from_u64(1), Lc::new(1, NodeId(0)));
        assert_ne!(s.fold_leaves(0, n), before, "a write must change the root fold");
        let leaf = s.leaf_of(Key(42));
        assert_ne!(s.fold_leaves(leaf, leaf + 1), 0);
    }

    #[test]
    fn concurrent_apply_max_converges_to_highest_clock() {
        use std::sync::Arc;
        let s = Arc::new(Store::new(64));
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for v in 0..1000u64 {
                    s.apply_max(Key(1), &Val::from_u64(v * 10 + t as u64), Lc::new(v, NodeId(t)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Highest clock overall is version 999, mid 3 → value 9993.
        assert_eq!(s.view(Key(1)).lc, Lc::new(999, NodeId(3)));
        assert_eq!(s.view(Key(1)).val.as_u64(), 9993);
    }
}
