//! Property tests for the in-flight table's generational rid scheme and an
//! end-to-end check that a worker drops stale replies carrying a recycled
//! slot's old rid (no cross-op completion, no panic).

use std::collections::VecDeque;
use std::sync::Arc;

use kite::api::Op;
use kite::inflight::{EsWriteState, InFlight, InFlightTable, Meta};
use kite::msg::Msg;
use kite::{NodeShared, ProtocolMode, Session, SessionDriver, Worker};
use kite_common::stats::ProtoCounters;
use kite_common::{ClusterConfig, Key, Lc, NodeId, NodeSet, OpId, SessionId, Val};
use kite_simnet::{Actor, Outbox};
use kite_verify::check::check;

fn entry(tag: u64) -> InFlight {
    InFlight::EsWrite(EsWriteState {
        meta: Meta {
            sess: 0,
            op_id: OpId::new(SessionId::new(NodeId(0), 0), tag),
            key: Key(1),
            op: Op::Read { key: Key(1) },
            invoked_at: tag, // unique marker
            last_sent: 0,
        },
        val: Val::EMPTY,
        lc: Lc::ZERO,
        acked: NodeSet::EMPTY,
    })
}

/// Model check: under arbitrary insert/remove interleavings, live rids
/// resolve to exactly their entry and every dead rid (including ones
/// whose slot has been recycled many times) resolves to nothing.
#[test]
fn dead_rids_never_resolve() {
    check(256, |src| {
        let ops = src.vec(1..200, |s| (s.bool(), s.u8()));
        let mut table = InFlightTable::new();
        let mut live: Vec<(u64, u64)> = Vec::new(); // (rid, marker)
        let mut dead: Vec<u64> = Vec::new();
        let mut next_tag = 0u64;
        for (insert, pick) in ops {
            if insert || live.is_empty() {
                next_tag += 1;
                let rid = table.insert(entry(next_tag));
                live.push((rid, next_tag));
            } else {
                let idx = pick as usize % live.len();
                let (rid, tag) = live.swap_remove(idx);
                let removed = table.remove(rid).expect("live rid must remove");
                assert_eq!(removed.meta().invoked_at, tag);
                dead.push(rid);
            }
            assert_eq!(table.len(), live.len());
            for &(rid, tag) in &live {
                assert_eq!(table.get(rid).expect("live rid").meta().invoked_at, tag);
            }
            for &rid in &dead {
                assert!(table.get(rid).is_none(), "dead rid resolved");
                assert!(!table.contains(rid));
            }
        }
    });
}

/// Hammering one slot through many generations never lets an old rid
/// alias the current occupant.
#[test]
fn slot_reuse_is_aba_safe() {
    check(256, |src| {
        let reuses = src.range(1..512);
        let mut table = InFlightTable::new();
        let mut old_rids = Vec::new();
        for i in 0..reuses {
            let rid = table.insert(entry(i));
            table.remove(rid);
            old_rids.push(rid);
        }
        let current = table.insert(entry(9999));
        for rid in old_rids {
            assert_ne!(rid, current);
            assert!(table.get(rid).is_none());
        }
        assert_eq!(table.get(current).unwrap().meta().invoked_at, 9999);
    });
}

// ===========================================================================
// End-to-end: a worker must drop stale replies for recycled rids
// ===========================================================================

/// Build a single standalone Kite worker for node 0 of a 3-node cluster,
/// with one client session (ops are fed through `Worker::submit` on
/// demand; its completions are never drained).
fn worker_with_client_session() -> Worker {
    let cfg = ClusterConfig::small();
    let shared = NodeShared::new(NodeId(0), cfg, Arc::new(ProtoCounters::default()));
    let mut sess = Session::new(session());
    sess.driver = SessionDriver::Client(VecDeque::new());
    Worker::new(0, shared, ProtocolMode::Kite, vec![sess], None)
}

/// The one session of [`worker_with_client_session`].
fn session() -> SessionId {
    SessionId::new(NodeId(0), 0)
}

/// Drive one tick and collect the rids of EsWrite broadcasts it emitted.
fn tick_collect_es_rids(w: &mut Worker, now: u64, out: &mut Outbox<Msg>) -> Vec<u64> {
    w.on_tick(now, out);
    let mut rids = Vec::new();
    out.flush(|_dst, batch| {
        for m in batch {
            if let Msg::EsWrite { rid, .. } = m {
                if !rids.contains(&rid) {
                    rids.push(rid);
                }
            }
        }
    });
    rids
}

#[test]
fn stale_es_ack_for_recycled_rid_is_dropped() {
    let mut w = worker_with_client_session();
    let mut out: Outbox<Msg> = Outbox::new(3);

    // First write: one tracked EsWrite in flight.
    w.submit(session(), Op::Write { key: Key(7), val: Val::from_u64(1) });
    let rids = tick_collect_es_rids(&mut w, 0, &mut out);
    assert_eq!(rids.len(), 1, "one relaxed write broadcast");
    let old_rid = rids[0];
    assert_eq!(w.inflight_len(), 1);

    // Both peers ack: the entry retires and its slot is freed.
    w.on_envelope(NodeId(1), 0, &mut vec![Msg::Ack { rid: old_rid }], 10, &mut out);
    w.on_envelope(NodeId(2), 0, &mut vec![Msg::Ack { rid: old_rid }], 20, &mut out);
    out.flush(|_, _| {});
    assert_eq!(w.inflight_len(), 0, "fully acked write retires");

    // Second write: the slab recycles the slot under a new generation.
    w.submit(session(), Op::Write { key: Key(7), val: Val::from_u64(2) });
    let rids = tick_collect_es_rids(&mut w, 30, &mut out);
    assert_eq!(rids.len(), 1);
    let new_rid = rids[0];
    assert_eq!(old_rid & 0xFFFF_FFFF, new_rid & 0xFFFF_FFFF, "slot recycled");
    assert_ne!(old_rid, new_rid, "generation must differ");
    assert_eq!(w.inflight_len(), 1);

    // A duplicate (retransmitted) ack carrying the OLD rid arrives: the
    // generation check must drop it — the new write's ack set is untouched,
    // so a single further ack cannot spuriously retire it.
    w.on_envelope(NodeId(1), 0, &mut vec![Msg::Ack { rid: old_rid }], 40, &mut out);
    assert_eq!(w.inflight_len(), 1, "stale ack must not touch the recycled slot");

    // One genuine ack: still in flight (needs all three machines).
    w.on_envelope(NodeId(1), 0, &mut vec![Msg::Ack { rid: new_rid }], 50, &mut out);
    assert_eq!(w.inflight_len(), 1, "one peer ack of two is not all-acked");

    // A stale ack from the *other* peer must not complete it either.
    w.on_envelope(NodeId(2), 0, &mut vec![Msg::Ack { rid: old_rid }], 60, &mut out);
    assert_eq!(w.inflight_len(), 1, "stale ack from second peer dropped too");

    // The genuine second ack retires it.
    w.on_envelope(NodeId(2), 0, &mut vec![Msg::Ack { rid: new_rid }], 70, &mut out);
    assert_eq!(w.inflight_len(), 0);
    out.flush(|_, _| {});
}

/// A coalesced ack batch mixing a stale (recycled-slot) rid with a live one
/// must apply the live ack and drop the stale one individually — coalescing
/// must not weaken the generation check.
#[test]
fn stale_rid_inside_ack_batch_is_dropped_individually() {
    let mut w = worker_with_client_session();
    let mut out: Outbox<Msg> = Outbox::new(3);

    // Retire a first write to obtain a stale rid for a recycled slot.
    w.submit(session(), Op::Write { key: Key(7), val: Val::from_u64(1) });
    let old_rid = tick_collect_es_rids(&mut w, 0, &mut out)[0];
    w.on_envelope(NodeId(1), 0, &mut vec![Msg::Ack { rid: old_rid }], 10, &mut out);
    w.on_envelope(NodeId(2), 0, &mut vec![Msg::Ack { rid: old_rid }], 20, &mut out);
    assert_eq!(w.inflight_len(), 0);

    // Second write reuses the slot under a new generation.
    w.submit(session(), Op::Write { key: Key(7), val: Val::from_u64(2) });
    let new_rid = tick_collect_es_rids(&mut w, 30, &mut out)[0];
    assert_ne!(old_rid, new_rid);

    // One batch carrying both: only the live rid may count. After it, one
    // peer has acked — the entry must still be in flight.
    let mut batch = vec![Msg::AckBatch { rids: vec![old_rid, new_rid] }];
    w.on_envelope(NodeId(1), 0, &mut batch, 40, &mut out);
    assert_eq!(w.inflight_len(), 1, "stale rid in batch must not double-count");

    // The second peer's batch (stale first again) retires it.
    let mut batch = vec![Msg::AckBatch { rids: vec![old_rid, new_rid] }];
    w.on_envelope(NodeId(2), 0, &mut batch, 50, &mut out);
    assert_eq!(w.inflight_len(), 0, "live rids in batches must still resolve");
    out.flush(|_, _| {});
}

/// Replies whose rid was never issued (arbitrary garbage, untracked-space
/// ids, rid 0) must be ignored across all reply kinds without panicking.
#[test]
fn unknown_rids_are_ignored_across_reply_kinds() {
    let mut w = worker_with_client_session();
    let mut out: Outbox<Msg> = Outbox::new(3);
    w.submit(session(), Op::Write { key: Key(7), val: Val::from_u64(1) });
    let rids = tick_collect_es_rids(&mut w, 0, &mut out);
    let live = rids[0];

    for bogus in [0u64, live ^ (1 << 32), 1 << 63, u64::MAX, live + 1] {
        let mut msgs = vec![
            Msg::Ack { rid: bogus },
            Msg::RtsRep { rid: bogus, lc: Lc::ZERO },
            Msg::ReadRep { rid: bogus, val: Val::EMPTY, lc: Lc::ZERO, delinquent: false },
            Msg::WriteAck { rid: bogus, delinquent: false },
            Msg::SlowReleaseAck { rid: bogus },
            Msg::AckBatch { rids: vec![bogus, bogus] },
        ];
        w.on_envelope(NodeId(1), 0, &mut msgs, 100, &mut out);
    }
    assert_eq!(w.inflight_len(), 1, "live entry unaffected by garbage rids");
    out.flush(|_, _| {});
}
