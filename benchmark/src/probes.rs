//! Layer probes: timed calls into each layer's public functions, on inputs
//! shaped like the workload's own (key count, node count, message mix).
//! Each probe is one `probe.<layer>.<fn>` span with a call count. The
//! ledger multiplies probe costs by the calls per op the counters report.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kite::api::{Completion, Op, OpOutput};
use kite::inflight::{EsWriteState, InFlight, InFlightTable, Meta};
use kite::msg::{Cmd, CommitPayload, Msg, PromiseOutcome};
use kite::wire::{self, ClientFrame};
use kite_common::rng::SplitMix64;
use kite_common::{Epoch, Key, Lc, NodeId, NodeSet, OpId, SessionId, Val};
use kite_kvs::{DurabilitySink, Store};
use kite_net::ring::{OutRing, Pool};
use kite_simnet::Outbox;

use crate::gen::val32;
use crate::layers::value;
use crate::trace::Tracer;

/// Wall budget per probe.
const BUDGET: Duration = Duration::from_millis(60);

/// What to probe and on what shape of input.
pub struct Scope {
    pub keys: usize,
    pub nodes: usize,
    /// Share of ops that are RMWs, releases, relaxed writes, acquires
    /// (`MixCfg::class_fractions` order, reads omitted) — shapes the
    /// message batch the wire probes encode. `None` skips net and wire.
    pub wire_mix: Option<(f64, f64, f64, f64)>,
    /// Scratch directory for the WAL probes; `None` skips them.
    pub wal_dir: Option<PathBuf>,
}

impl Scope {
    /// The simulator bypasses net, wire and wal.
    pub fn sim(keys: usize, nodes: usize) -> Scope {
        Scope {
            keys,
            nodes,
            wire_mix: None,
            wal_dir: None,
        }
    }
}

/// Run `f` in batches until the budget is spent; mean ns per call.
fn time(tracer: &mut Tracer, name: &'static str, units: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..64 {
        f();
    }
    let (start, mut calls) = (Instant::now(), 0u64);
    while start.elapsed() < BUDGET {
        for _ in 0..64 {
            f();
        }
        calls += 64;
    }
    let end = Instant::now();
    let id = tracer.id();
    let (s, e) = (tracer.at(start), tracer.at(end));
    tracer.record_ns(id, 0, name, s, e, calls * units);
    (end - start).as_nanos() as f64 / (calls * units) as f64
}

fn op_id(tag: u64) -> OpId {
    OpId::new(SessionId::new(NodeId(0), 0), tag)
}

fn es_entry(tag: u64) -> InFlight {
    InFlight::EsWrite(EsWriteState {
        meta: Meta {
            sess: 0,
            op_id: op_id(tag),
            key: Key(tag),
            op: Op::Read { key: Key(tag) },
            invoked_at: tag,
            last_sent: 0,
        },
        val: Val::EMPTY,
        lc: Lc::ZERO,
        acked: NodeSet::singleton(NodeId(0)),
    })
}

/// The protocol messages ~100 ops of the mix put on one node's links, in
/// the mix's proportions: ES writes and their coalesced acks, the two ABD
/// rounds of releases and acquires, the three Paxos rounds of RMWs.
fn message_batch(mix: (f64, f64, f64, f64), rng: &mut SplitMix64) -> Vec<Msg> {
    let (rmw, rel, write, acq) = mix;
    let count = |share: f64| (share * 100.0).round() as u64;
    let me = NodeId(0);
    let mut msgs = Vec::new();
    for i in 0..count(write) {
        let key = Key(rng.next_below(1 << 16));
        msgs.push(Msg::EsWrite {
            rid: i,
            key,
            val: val32(rng),
            lc: Lc::new(i + 1, me),
        });
    }
    if count(write) > 0 {
        msgs.push(Msg::AckBatch {
            rids: (0..count(write)).collect(),
        });
    }
    for i in 0..count(rel) {
        let key = Key(rng.next_below(1 << 16));
        msgs.push(Msg::RtsReq { rid: i, key });
        msgs.push(Msg::RtsRep {
            rid: i,
            lc: Lc::new(i + 1, me),
        });
        msgs.push(Msg::WriteMsg {
            rid: i,
            key,
            val: val32(rng),
            lc: Lc::new(i + 2, me),
        });
        msgs.push(Msg::Ack { rid: i });
    }
    for i in 0..count(acq) {
        let key = Key(rng.next_below(1 << 16));
        msgs.push(Msg::ReadReq {
            rid: i,
            key,
            acq: Some(op_id(i)),
        });
        msgs.push(Msg::ReadRep {
            rid: i,
            val: val32(rng),
            lc: Lc::new(i + 1, me),
            delinquent: false,
        });
    }
    for i in 0..count(rmw) {
        let key = Key(rng.next_below(1 << 16));
        let ballot = Lc::new(i + 1, me);
        let val = Val::from_u64(i);
        let cmd = Arc::new(Cmd {
            op: op_id(i),
            new_val: val.clone(),
            result: val.clone(),
            lc: ballot,
        });
        let commit = Arc::new(CommitPayload {
            slot: i,
            val: val.clone(),
            lc: ballot,
            meta: Some((op_id(i), val)),
        });
        msgs.push(Msg::Propose {
            rid: i,
            key,
            slot: i,
            ballot,
            op: op_id(i),
        });
        let outcome = PromiseOutcome::Promised { accepted: None };
        msgs.push(Msg::PromiseRep {
            rid: i,
            ballot,
            outcome,
            delinquent: false,
        });
        msgs.push(Msg::Accept {
            rid: i,
            key,
            slot: i,
            ballot,
            cmd,
        });
        msgs.push(Msg::AcceptRep {
            rid: i,
            ballot,
            ok: true,
            promised: ballot,
            delinquent: false,
        });
        msgs.push(Msg::Commit {
            rid: i,
            key,
            c: commit,
        });
        msgs.push(Msg::Ack { rid: i });
    }
    msgs
}

fn kvs(scope: &Scope, t: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    let store = Store::new(scope.keys);
    let (me, peer) = (NodeId(0), NodeId(1));
    let mut rng = SplitMix64::new(0x5EED);
    let keys = scope.keys as u64;
    for k in 0..keys {
        store.fast_write(Key(k), &val32(&mut rng), me, Epoch::ZERO);
    }
    let val = val32(&mut rng);
    out.push((
        "kvs.view_ns",
        time(t, "probe.kvs.view", 1, || {
            std::hint::black_box(store.view(Key(rng.next_below(keys))));
        }),
    ));
    out.push((
        "kvs.fast_write_ns",
        time(t, "probe.kvs.fast_write", 1, || {
            std::hint::black_box(store.fast_write(
                Key(rng.next_below(keys)),
                &val,
                me,
                Epoch::ZERO,
            ));
        }),
    ));
    out.push((
        "kvs.stamp_apply_ns",
        time(t, "probe.kvs.stamp_apply", 1, || {
            std::hint::black_box(store.stamp_apply(
                Key(rng.next_below(keys)),
                &val,
                Lc::ZERO,
                me,
                None,
            ));
        }),
    ));
    // A remote write that wins the LLC-max race: versions climb past
    // everything the probes above stamped.
    let mut version = 1u64 << 40;
    out.push((
        "kvs.apply_max_ns",
        time(t, "probe.kvs.apply_max", 1, || {
            version += 1;
            std::hint::black_box(store.apply_max(
                Key(rng.next_below(keys)),
                &val,
                Lc::new(version, peer),
            ));
        }),
    ));
    let (mut at, mut digest) = (0usize, Vec::with_capacity(128));
    out.push((
        "kvs.digest_range_ns_per_slot",
        time(t, "probe.kvs.digest_range", 128, || {
            digest.clear();
            at = store.digest_range(at, 128, &mut digest);
            std::hint::black_box(&digest);
        }),
    ));
    let leaves = store.merkle_leaves();
    out.push((
        "kvs.fold_leaves_ns",
        time(t, "probe.kvs.fold_leaves", 1, || {
            std::hint::black_box(store.fold_leaves(0, leaves));
        }),
    ));
}

fn core(scope: &Scope, t: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    let mut table = InFlightTable::new();
    for i in 0..63 {
        table.insert(es_entry(i));
    }
    out.push((
        "inflight.insert_remove_ns",
        time(t, "probe.inflight.insert_remove", 1, || {
            let rid = table.insert(es_entry(99));
            std::hint::black_box(table.remove(rid));
        }),
    ));
    let rids: Vec<u64> = (0..64).map(|_| table.insert(es_entry(7))).collect();
    let mut i = 0usize;
    out.push((
        "inflight.reply_lookup_ns",
        time(t, "probe.inflight.reply_lookup", 1, || {
            i = (i + 1) & 63;
            if let Some(InFlight::EsWrite(es)) = table.get_mut(std::hint::black_box(rids[i])) {
                es.acked.insert(NodeId(1));
            }
        }),
    ));

    let mut ob: Outbox<Msg> = Outbox::new(scope.nodes);
    let m = Msg::EsWrite {
        rid: 42,
        key: Key(7),
        val: Val::from_bytes(&[9u8; 32]),
        lc: Lc::new(3, NodeId(0)),
    };
    let mut returned: Vec<Vec<Msg>> = Vec::with_capacity(scope.nodes);
    out.push((
        "outbox.broadcast_flush_ns",
        time(t, "probe.outbox.broadcast_flush", 1, || {
            ob.broadcast(NodeId(0), m.clone());
            ob.flush(|_, b| returned.push(b));
            for mut b in returned.drain(..) {
                b.clear();
                ob.recycle(b);
            }
        }),
    ));

    let h = kite_metrics::Histogram::new();
    let mut v = 1u64;
    out.push((
        "metrics.hist_record_ns",
        time(t, "probe.metrics.hist_record", 1, || {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(std::hint::black_box(v >> 40));
        }),
    ));
}

fn wire_and_ring(mix: (f64, f64, f64, f64), t: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = SplitMix64::new(0x5EED);
    let msgs = message_batch(mix, &mut rng);
    let n = msgs.len() as u64;
    let mut buf = Vec::with_capacity(1 << 16);
    out.push((
        "wire.encode_ns_per_msg",
        time(t, "probe.wire.encode_frames", n, || {
            buf.clear();
            std::hint::black_box(wire::encode_frames(NodeId(0), 0, &msgs, &mut buf));
        }),
    ));
    out.push(("wire.bytes_per_msg", buf.len() as f64 / n as f64));
    let mut into: Vec<Msg> = Vec::with_capacity(msgs.len());
    out.push((
        "wire.decode_ns_per_msg",
        time(t, "probe.wire.decode_frame_body", n, || {
            into.clear();
            let mut pos = 0;
            while pos < buf.len() {
                let prefix = [buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]];
                let len = wire::frame_body_len(prefix).expect("own encoding");
                wire::decode_frame_body(&buf[pos + 4..pos + 4 + len], &mut into)
                    .expect("own encoding");
                pos += 4 + len;
            }
            std::hint::black_box(&into);
        }),
    ));

    // One op's trip through the client protocol: the submit frame in, the
    // completion frame back.
    let op = Op::Write {
        key: Key(9),
        val: val32(&mut rng),
    };
    let done = Completion {
        op_id: op_id(1),
        op: op.clone(),
        output: OpOutput::Value(val32(&mut rng)),
        invoked_at: 1,
        completed_at: 2,
    };
    let (submit, completion) = (ClientFrame::Submit(op), ClientFrame::Completion(done));
    let mut cbuf = Vec::with_capacity(256);
    out.push((
        "wire.client_frame_ns",
        time(t, "probe.wire.client_frame", 1, || {
            for f in [&submit, &completion] {
                cbuf.clear();
                wire::encode_client_frame(f, &mut cbuf);
                std::hint::black_box(wire::decode_client_frame(&cbuf[4..]).expect("own encoding"));
            }
        }),
    ));

    // One frame through the outbound ring onto a loopback socket (the
    // write syscall included); a reader thread keeps the peer end empty.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut tx =
        TcpStream::connect(listener.local_addr().expect("bound")).expect("connect loopback");
    let (mut rx, _) = listener.accept().expect("accept loopback");
    tx.set_nodelay(true).ok();
    tx.set_nonblocking(true).expect("nonblocking");
    let reader = std::thread::spawn(move || {
        let mut sink = vec![0u8; 1 << 16];
        while rx.read(&mut sink).is_ok_and(|n| n > 0) {}
    });
    // A typical envelope: the batch split over the frames the counters see.
    let frame_len = (buf.len() / 8).max(64);
    let (mut ring, pool) = (OutRing::new(), Pool::<u8>::new(64));
    out.push((
        "ring.push_drain_ns_per_frame",
        time(t, "probe.ring.push_drain", 1, || {
            let mut frame = pool.pop();
            frame.resize(frame_len, 0xAB);
            ring.push(frame).expect("ring below its caps");
            while !matches!(
                ring.drain_to(&mut tx, &pool),
                Ok(kite_net::ring::Drain::Emptied)
            ) {
                std::thread::yield_now();
            }
        }),
    ));
    drop(tx);
    reader.join().expect("reader thread");
}

fn wal(dir: &std::path::Path, t: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    let _ = std::fs::remove_dir_all(dir);
    let wal =
        kite_wal::Wal::open(dir, 100_000, u64::MAX / 4, Box::new(|_| {})).expect("open probe WAL");
    let mut rng = SplitMix64::new(0x5EED);
    let val = val32(&mut rng);
    let mut v = 0u64;
    out.push((
        "wal.record_ns",
        time(t, "probe.wal.record", 1, || {
            v += 1;
            wal.record(Key(v & 0xFFFF), Lc::new(v, NodeId(0)), &val)
                .expect("32-byte value frames");
        }),
    ));
    // Group commit of a small batch: stage 32 records, wait for the fsync.
    let (start, mut flushes) = (Instant::now(), 0u64);
    let mut in_flush = Duration::ZERO;
    while start.elapsed() < BUDGET * 4 {
        for _ in 0..32 {
            v += 1;
            wal.record(Key(v & 0xFFFF), Lc::new(v, NodeId(0)), &val)
                .expect("32-byte value frames");
        }
        let f = Instant::now();
        wal.flush();
        in_flush += f.elapsed();
        flushes += 1;
    }
    let id = t.id();
    let s = t.at(start);
    t.record_ns(
        id,
        0,
        "probe.wal.flush",
        s,
        s + in_flush.as_nanos() as u64,
        flushes,
    );
    out.push((
        "wal.flush_us",
        in_flush.as_secs_f64() * 1e6 / flushes as f64,
    ));
    wal.close();
    let _ = std::fs::remove_dir_all(dir);
}

/// Run every probe in scope.
pub fn run(scope: &Scope, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    core(scope, tracer, &mut out);
    kvs(scope, tracer, &mut out);
    if let Some(mix) = scope.wire_mix {
        wire_and_ring(mix, tracer, &mut out);
    }
    if let Some(dir) = &scope.wal_dir {
        wal(dir, tracer, &mut out);
    }
    out
}

/// Probe cost × calls per op, per layer, and the share of the measured
/// per-op host cost the ledger accounts for. `metrics` holds the count
/// metrics of the same run. Reported, not gated.
pub fn ledger(
    probes: &[(&'static str, f64)],
    metrics: &[(&'static str, f64)],
    nodes: usize,
    measured_us_per_op: f64,
) -> Vec<(&'static str, f64)> {
    let p = |n: &str| value(probes, n);
    let m = |n: &str| value(metrics, n);
    // net: every frame crosses a ring and a write syscall.
    let net = p("ring.push_drain_ns_per_frame") * m("net.frames_per_op");
    // wire: each protocol message is encoded once and decoded once; each op
    // crosses the client protocol once in each direction.
    let wire = (p("wire.encode_ns_per_msg") + p("wire.decode_ns_per_msg")) * m("core.msgs_per_op")
        + p("wire.client_frame_ns")
            * if m("net.frames_per_op") > 0.0 {
                1.0
            } else {
                0.0
            };
    // core: ops that leave the node take a slab entry; about half of all
    // messages are replies resolved through it; each envelope is one share
    // of a broadcast-flush-recycle cycle.
    let core = p("inflight.insert_remove_ns") * (1.0 - m("core.local_read_share")).max(0.0)
        + p("inflight.reply_lookup_ns") * m("core.msgs_per_op") / 2.0
        + p("outbox.broadcast_flush_ns") * m("core.envelopes_per_op") / (nodes.max(2) - 1) as f64;
    // kvs: a local view per local read; of the applied writes, one in
    // `nodes` is the issuer's fast write and the rest are remote applies.
    let writes = m("kvs.writes_per_op");
    let kvs = p("kvs.view_ns") * m("core.local_read_share")
        + p("kvs.fast_write_ns") * writes / nodes as f64
        + p("kvs.apply_max_ns") * writes * (nodes - 1) as f64 / nodes as f64;
    // wal: staging on the request path only — the group commit
    // (`wal.flush_us`) runs on the flusher thread and is wall time in
    // fsync, not CPU.
    let wal = p("wal.record_ns") * m("wal.records_per_op");
    let us = |ns: f64| ns / 1e3;
    let total = us(net + wire + core + kvs + wal);
    vec![
        ("ledger.net_us_per_op", us(net)),
        ("ledger.wire_us_per_op", us(wire)),
        ("ledger.core_us_per_op", us(core)),
        ("ledger.kvs_us_per_op", us(kvs)),
        ("ledger.wal_us_per_op", us(wal)),
        (
            "ledger.coverage",
            if measured_us_per_op > 0.0 {
                total / measured_us_per_op
            } else {
                0.0
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_batch_follows_the_mix_and_round_trips() {
        let mut rng = SplitMix64::new(1);
        // typical(0.2): 0 % RMW, 1 % release, 19 % write, 4 % acquire
        let msgs = message_batch((0.0, 0.01, 0.19, 0.04), &mut rng);
        assert_eq!(msgs.len(), 19 + 1 + 4 + 8);
        let mut buf = Vec::new();
        wire::encode_frames(NodeId(0), 0, &msgs, &mut buf);
        let len = wire::frame_body_len([buf[0], buf[1], buf[2], buf[3]]).unwrap();
        let mut into = Vec::new();
        wire::decode_frame_body(&buf[4..4 + len], &mut into).unwrap();
        assert_eq!(into.len(), msgs.len());
        // an RMW share adds the three Paxos rounds
        let with_rmw = message_batch((0.1, 0.0, 0.0, 0.0), &mut rng);
        assert_eq!(with_rmw.len(), 10 * 6);
    }

    #[test]
    fn ledger_multiplies_probe_cost_by_calls_per_op() {
        let probes = [
            ("kvs.view_ns", 100.0),
            ("kvs.fast_write_ns", 200.0),
            ("kvs.apply_max_ns", 300.0),
        ];
        let metrics = [("core.local_read_share", 0.5), ("kvs.writes_per_op", 1.0)];
        let l = ledger(&probes, &metrics, 5, 1.0);
        // 100·0.5 + 200·0.2 + 300·0.8 = 330 ns
        assert!((value(&l, "ledger.kvs_us_per_op") - 0.33).abs() < 1e-9);
        assert_eq!(value(&l, "ledger.net_us_per_op"), 0.0);
        assert!((value(&l, "ledger.coverage") - 0.33).abs() < 1e-9);
    }
}
