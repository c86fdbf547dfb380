//! The dynamic twin of the static `no-alloc` rule: a counting global
//! allocator proves the three `kite-lint: no-alloc` steady-state paths —
//! `Outbox` flush→recycle, `InFlightTable` resolve/reuse, and the fabric's
//! pooled encode→decode→ring→`writev` cycle — perform **zero** heap allocations
//! once warmed up. The static rule catches allocation *constructs*; this
//! test catches allocation *behavior* (a pool that silently stops pooling
//! passes the lexical rule but fails here).
//!
//! The armed flag is thread-local: the libtest harness runs bookkeeping
//! threads in this same process, and their incidental allocations must not
//! bleed into the count (they did — the assertion flaked by 1-2 counts
//! until only the measuring thread was counted).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};

use kite::inflight::{EsWriteState, InFlight, InFlightTable, Meta};
use kite::wire;
use kite::{Msg, Op};
use kite_common::{Key, Lc, NodeId, NodeSet, OpId, SessionId, Val};
use kite_net::ring::{Drain, OutRing, Pool};
use kite_simnet::Outbox;

/// Counts allocator calls while [`ARMED`]; allocation itself is delegated
/// untouched to [`System`].
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Armed on the measuring thread only. `const`-initialized `Cell<bool>`
    /// carries no destructor, so reading it from inside the allocator can
    /// never recurse into allocation or trip TLS-teardown panics.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every method delegates directly to `System`, which upholds the
// GlobalAlloc contract; the only addition is a counter bump with no effect
// on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout contract as `System::alloc` (delegated verbatim).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: same pointer/layout contract as `System::dealloc`. Frees are
    // deliberately not counted: handing memory *back* is always legal on a
    // no-alloc path.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same contract as `System::realloc` (delegated verbatim).
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` with this thread's counter armed; returns how many allocations
/// it made.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.load(Ordering::SeqCst) - before
}

fn sample_msg(i: u64) -> Msg {
    Msg::EsWrite { rid: i, key: Key(i), val: Val::from_u64(i * 3), lc: Lc::new(i + 1, NodeId(1)) }
}

fn es_entry() -> InFlight {
    InFlight::EsWrite(EsWriteState {
        meta: Meta {
            sess: 0,
            op_id: OpId::new(SessionId::new(NodeId(0), 0), 1),
            key: Key(7),
            op: Op::Write { key: Key(7), val: Val::from_u64(9) },
            invoked_at: 0,
            last_sent: 0,
        },
        val: Val::from_u64(9),
        lc: Lc::ZERO,
        acked: NodeSet::EMPTY,
    })
}

/// One broadcast→flush→recycle cycle; handed-out batches park in `handed`
/// (pre-sized) until the flush borrow ends, then recycle.
fn outbox_cycle(ob: &mut Outbox<Msg>, handed: &mut Vec<(NodeId, Vec<Msg>)>) {
    for i in 0..8 {
        ob.broadcast(NodeId(0), sample_msg(i));
    }
    ob.flush(|dst, batch| handed.push((dst, batch)));
    for (_, batch) in handed.drain(..) {
        ob.recycle(batch);
    }
}

/// A connected loopback pair: the nonblocking sending end the ring drains
/// into, and the receiving end the test reads back from (same thread — the
/// frames fit the socket buffers many times over).
struct Loopback {
    tx: TcpStream,
    rx: TcpStream,
    sink: Vec<u8>,
}

impl Loopback {
    fn new() -> Loopback {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let tx = TcpStream::connect(listener.local_addr().expect("bound")).expect("connect");
        let (rx, _) = listener.accept().expect("accept");
        tx.set_nodelay(true).expect("nodelay");
        tx.set_nonblocking(true).expect("nonblocking");
        Loopback { tx, rx, sink: vec![0u8; 1 << 16] }
    }
}

/// One fabric-shaped readiness cycle: encode a batch into a pooled byte
/// buffer, split and decode it back into a pooled message buffer (what
/// `decode_conn_frames` does per readable connection), stage the frame on
/// the ring and drain the ring through a real socket with `drain_to` (what
/// `drain_and_arm` does per flush), which returns the buffer to its pool.
fn fabric_cycle(
    byte_pool: &Pool<u8>,
    msg_pool: &Pool<Msg>,
    ring: &mut OutRing,
    wire_pair: &mut Loopback,
    batch: &[Msg],
) {
    let mut buf = byte_pool.pop();
    let frames = wire::encode_frames(NodeId(0), 0, batch, &mut buf);
    assert_eq!(frames, 1);

    let mut msgs = msg_pool.pop();
    let (body, _) = wire::next_frame(&buf).expect("own frame").expect("whole frame");
    let (src, _) = wire::decode_frame_body(body, &mut msgs).expect("own frame");
    assert_eq!(src, NodeId(0));
    assert_eq!(msgs.len(), batch.len());
    msg_pool.put(msgs);

    let frame_len = buf.len();
    ring.push(buf).expect("ring has room");
    let drained = ring.drain_to(&mut wire_pair.tx, byte_pool).expect("loopback write");
    assert_eq!(drained, Drain::Emptied, "a {frame_len} B frame fits the socket buffer");
    wire_pair.rx.read_exact(&mut wire_pair.sink[..frame_len]).expect("frame arrives");
}

#[test]
fn steady_state_paths_do_not_allocate() {
    // --- Path 1: Outbox flush→recycle (kite-lint: no-alloc on `flush`).
    let mut ob: Outbox<Msg> = Outbox::new(4);
    let mut handed: Vec<(NodeId, Vec<Msg>)> = Vec::with_capacity(4);
    // Warm up: first flushes draw replacement buffers from the allocator
    // until enough circulate through the pool.
    for _ in 0..4 {
        outbox_cycle(&mut ob, &mut handed);
    }
    let n = count_allocs(|| {
        for _ in 0..100 {
            outbox_cycle(&mut ob, &mut handed);
        }
    });
    assert_eq!(n, 0, "Outbox steady state allocated {n} times over 100 cycles");

    // --- Path 2: InFlightTable resolve/reuse (no-alloc on slot_of/get/
    // get_mut/remove; remove→insert recycles the slot LIFO).
    let mut table = InFlightTable::with_capacity(8);
    let mut rid = table.insert(es_entry());
    // Warm-up: one full cycle so the free list has been pushed to once.
    let warm = table.remove(rid).expect("live rid");
    rid = table.insert(warm);
    let n = count_allocs(|| {
        for _ in 0..1000 {
            match table.get_mut(rid).expect("live rid") {
                InFlight::EsWrite(s) => s.acked = NodeSet::EMPTY,
                other => panic!("wrong entry kind: {}", other.tag()),
            }
            let entry = table.remove(rid).expect("live rid");
            rid = table.insert(entry);
        }
    });
    assert_eq!(n, 0, "InFlightTable steady state allocated {n} times over 1000 cycles");

    // --- Path 3: the fabric readiness cycle (no-alloc on flush_outbox /
    // decode_conn_frames / OutRing::drain_to), driving the same pools,
    // codec and ring the event loop uses, the ring draining through a real
    // loopback socket.
    let byte_pool = Pool::new(8);
    let msg_pool = Pool::new(8);
    let mut ring = OutRing::new();
    let mut wire_pair = Loopback::new();
    let batch: Vec<Msg> = (0..8).map(sample_msg).collect();
    for _ in 0..4 {
        fabric_cycle(&byte_pool, &msg_pool, &mut ring, &mut wire_pair, &batch);
    }
    let n = count_allocs(|| {
        for _ in 0..100 {
            fabric_cycle(&byte_pool, &msg_pool, &mut ring, &mut wire_pair, &batch);
        }
    });
    assert_eq!(n, 0, "fabric steady state allocated {n} times over 100 cycles");
}

/// Path 4: the metrics recording hot paths (`kite-lint: no-alloc` on
/// `Counter::incr`/`add`, `Gauge::set`, `Histogram::record`,
/// `Hll::observe`). Construction allocates (registers, bucket arrays);
/// recording must never — these run inside `sink_apply`, the session
/// retire path and the WAL flusher.
#[test]
fn metric_recording_does_not_allocate() {
    use kite_metrics::{Counter, Gauge, Histogram, Hll};

    let c = Counter::new();
    let g = Gauge::new();
    let h = Histogram::new();
    let sk = Hll::new();
    // Warm up (recording has no lazy init, but keep the shape uniform
    // with the other guard paths).
    for i in 0..64u64 {
        c.incr();
        g.set(i);
        h.record(i * 31);
        sk.observe(i);
    }
    let n = count_allocs(|| {
        for i in 0..10_000u64 {
            c.incr();
            c.add(3);
            g.set(i);
            h.record(i.wrapping_mul(0x9E3779B97F4A7C15));
            sk.observe(i);
        }
    });
    assert_eq!(n, 0, "metric recording allocated {n} times over 10k cycles");
    assert_eq!(c.get(), 64 + 4 * 10_000);
    assert!(sk.estimate() > 0);
}
