//! Property tests of the wire codec: every `Msg` variant round-trips
//! through encode → frame → decode, and malformed input of every flavour
//! (truncation, oversize, bit-flips, garbage) decodes to an error — never
//! a panic, because a malformed peer frame costs the sender its connection
//! and must not cost the receiving worker its process.

use std::sync::Arc;

use kite::msg::{
    Cmd, CommitPayload, DigestChunk, MerkleSummary, Msg, PromiseOutcome, Repair, WriteBack,
};
use kite::wire::{self, WireError};
use kite_common::{Key, Lc, NodeId, NodeSet, OpId, SessionId, Val};
use kite_kvs::RmwCommit;
use kite_verify::check::{check, Src};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn gen_val(src: &mut Src) -> Val {
    match src.below(4) {
        0 => Val::EMPTY,
        1 => Val::from_u64(src.u64()),
        2 => {
            // Inline boundary (32 bytes).
            let b: Vec<u8> = (0..32).map(|_| src.u8()).collect();
            Val::from_bytes(&b)
        }
        _ => {
            // Heap flavour.
            let n = 33 + src.below(64) as usize;
            let b: Vec<u8> = (0..n).map(|_| src.u8()).collect();
            Val::from_bytes(&b)
        }
    }
}

fn gen_lc(src: &mut Src) -> Lc {
    Lc::new(src.below(1 << 40), NodeId(src.below(16) as u8))
}

fn gen_op_id(src: &mut Src) -> OpId {
    OpId::new(
        SessionId::new(NodeId(src.below(16) as u8), src.below(1 << 10) as u32),
        src.below(1 << 30),
    )
}

fn gen_ring(src: &mut Src) -> Vec<RmwCommit> {
    (0..src.below(5))
        .map(|_| RmwCommit { op: gen_op_id(src), slot: src.below(1 << 20), result: gen_val(src) })
        .collect()
}

fn gen_key(src: &mut Src) -> Key {
    Key(src.u64())
}

/// One random message covering **every** variant (tag picked uniformly).
fn gen_msg(src: &mut Src) -> Msg {
    let rid = src.u64();
    match src.below(23) {
        0 => Msg::EsWrite { rid, key: gen_key(src), val: gen_val(src), lc: gen_lc(src) },
        1 => Msg::Ack { rid },
        2 => Msg::AckBatch { rids: (0..src.below(20)).map(|_| src.u64()).collect() },
        3 => Msg::RtsReq { rid, key: gen_key(src) },
        4 => Msg::RtsRep { rid, lc: gen_lc(src) },
        5 => {
            let acq = if src.below(2) == 0 { Some(gen_op_id(src)) } else { None };
            Msg::ReadReq { rid, key: gen_key(src), acq }
        }
        6 => Msg::ReadRep {
            rid,
            val: gen_val(src),
            lc: gen_lc(src),
            delinquent: src.below(2) == 0,
        },
        7 => Msg::WriteMsg { rid, key: gen_key(src), val: gen_val(src), lc: gen_lc(src) },
        8 => Msg::WriteAcq {
            rid,
            wb: Arc::new(WriteBack {
                key: gen_key(src),
                val: gen_val(src),
                lc: gen_lc(src),
                acq: gen_op_id(src),
            }),
        },
        9 => Msg::WriteAck { rid, delinquent: src.below(2) == 0 },
        10 => Msg::SlowRelease { rid, dm: NodeSet(src.below(1 << 16) as u16) },
        11 => Msg::SlowReleaseAck { rid },
        12 => Msg::ResetBit { acq: gen_op_id(src) },
        13 => Msg::Propose {
            rid,
            key: gen_key(src),
            slot: src.below(1 << 20),
            ballot: gen_lc(src),
            op: gen_op_id(src),
        },
        14 => {
            let outcome = match src.below(5) {
                0 => PromiseOutcome::Promised { accepted: None },
                1 => PromiseOutcome::Promised {
                    accepted: Some(Box::new((
                        gen_lc(src),
                        Cmd {
                            op: gen_op_id(src),
                            new_val: gen_val(src),
                            result: gen_val(src),
                            lc: gen_lc(src),
                        },
                    ))),
                },
                2 => PromiseOutcome::NackBallot { promised: gen_lc(src) },
                3 => PromiseOutcome::AlreadyCommitted(gen_repair(src)),
                _ => PromiseOutcome::Lagging,
            };
            Msg::PromiseRep { rid, ballot: gen_lc(src), outcome, delinquent: src.below(2) == 0 }
        }
        15 => Msg::Accept {
            rid,
            key: gen_key(src),
            slot: src.below(1 << 20),
            ballot: gen_lc(src),
            cmd: Arc::new(Cmd {
                op: gen_op_id(src),
                new_val: gen_val(src),
                result: gen_val(src),
                lc: gen_lc(src),
            }),
        },
        16 => Msg::AcceptRep {
            rid,
            ballot: gen_lc(src),
            ok: src.below(2) == 0,
            promised: gen_lc(src),
            delinquent: src.below(2) == 0,
        },
        17 => Msg::Commit {
            rid,
            key: gen_key(src),
            c: Arc::new(CommitPayload {
                slot: src.below(1 << 20),
                val: gen_val(src),
                lc: gen_lc(src),
                meta: if src.below(2) == 0 { Some((gen_op_id(src), gen_val(src))) } else { None },
            }),
        },
        18 => Msg::Digest {
            d: Arc::new(DigestChunk {
                entries: (0..src.below(40)).map(|_| (gen_key(src), gen_lc(src))).collect(),
            }),
        },
        19 => Msg::RepairReq {
            keys: (0..src.below(20)).map(|_| gen_key(src)).collect::<Vec<_>>().into_boxed_slice(),
        },
        20 => Msg::MerkleSummary {
            s: Arc::new(MerkleSummary {
                level: src.below(8) as u8,
                start: src.below(1 << 20) as u32,
                hashes: (0..src.below(40)).map(|_| src.u64()).collect(),
            }),
        },
        21 => Msg::MerkleReq {
            level: src.below(8) as u8,
            buckets: (0..src.below(30))
                .map(|_| src.below(1 << 20) as u32)
                .collect::<Vec<_>>()
                .into(),
        },
        _ => Msg::RepairVal { r: gen_repair(src) },
    }
}

fn gen_repair(src: &mut Src) -> Box<Repair> {
    Box::new(Repair {
        key: gen_key(src),
        val: gen_val(src),
        lc: gen_lc(src),
        slot: src.below(1 << 20),
        ring: gen_ring(src),
    })
}

/// Structural equality via Debug — `Msg` deliberately has no PartialEq
/// (Arc payloads), and the Debug form prints every field.
fn same(a: &Msg, b: &Msg) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn msg_batch(src: &mut Src) -> Vec<Msg> {
    src.vec(1..17, gen_msg)
}

/// encode → frame → decode is the identity on every variant, and the
/// decode lands in a recycled buffer without disturbing prior content.
#[test]
fn frame_round_trips_every_variant() {
    check(400, |src| {
        let (msgs, from, mepoch) = (msg_batch(src), NodeId(src.below(16) as u8), src.u32());
        let mut buf = Vec::new();
        assert_eq!(wire::encode_frames(from, mepoch, &msgs, &mut buf), 1);
        let (body, rest) = wire::next_frame(&buf).unwrap().unwrap();
        assert!(rest.is_empty());
        let mut out = Vec::new();
        let (got_src, got_mepoch) = wire::decode_frame_body(body, &mut out).unwrap();
        assert_eq!(got_src, from);
        assert_eq!(got_mepoch, mepoch);
        assert_eq!(out.len(), msgs.len());
        for (a, b) in msgs.iter().zip(&out) {
            assert!(same(a, b), "mismatch: {:?} vs {:?}", a, b);
        }
    });
}

/// Every truncation of a valid frame decodes to an error (never panics,
/// never fabricates messages) and leaves the output buffer clean.
#[test]
fn truncated_frames_error_cleanly() {
    check(400, |src| {
        let msgs = msg_batch(src);
        let mut buf = Vec::new();
        assert_eq!(wire::encode_frames(NodeId(1), 0, &msgs, &mut buf), 1);
        let body = &buf[4..];
        // Counted from the end, so a shrink that deletes a message before
        // the cut keeps the bytes after it.
        let cut = body.len() - 1 - src.below(body.len() as u64) as usize;
        let mut out = Vec::new();
        let r = wire::decode_frame_body(&body[..cut], &mut out);
        assert!(r.is_err(), "decoding a {cut}-byte prefix of {} must fail", body.len());
        assert!(out.is_empty(), "failed decode must truncate its output buffer");
    });
}

/// Flipping any byte of a frame either still decodes (the flip hit a
/// payload byte) or errors — it never panics and never over-reads.
#[test]
fn bit_flips_never_panic() {
    check(400, |src| {
        let mut buf = Vec::new();
        assert_eq!(wire::encode_frames(NodeId(0), 0, &msg_batch(src), &mut buf), 1);
        let i = 4 + src.below(buf.len() as u64 - 4) as usize;
        buf[i] ^= src.range(1..256) as u8;
        let mut out = Vec::new();
        let _ = wire::decode_frame_body(&buf[4..], &mut out); // must return, not panic
    });
}

/// Pure garbage bodies decode to an error.
#[test]
fn garbage_bodies_error() {
    check(400, |src| {
        // Every byte is forced ≥ 0x80, far past the last valid msg tag
        // (22), so at least the first message is guaranteed invalid.
        let mut body = src.vec(9..64, |s| s.u8() | 0x80);
        body[0] = 1; // src
        // count = huge → Oversized, or plausible → BadTag/Truncated later.
        let mut out = Vec::new();
        assert!(wire::decode_frame_body(&body, &mut out).is_err());
    });
}

#[test]
fn oversized_collections_are_rejected_not_allocated() {
    // An AckBatch announcing 2^32-ish rids must be rejected by the length
    // gate before any allocation happens.
    let mut body = Vec::new();
    body.push(0); // src
    body.extend_from_slice(&0u32.to_le_bytes()); // mepoch
    body.extend_from_slice(&1u32.to_le_bytes()); // one message
    body.push(2); // T_ACK_BATCH
    body.extend_from_slice(&(u32::MAX).to_le_bytes()); // ludicrous count
    let mut out = Vec::new();
    assert!(matches!(
        wire::decode_frame_body(&body, &mut out),
        Err(WireError::Oversized { .. })
    ));
}

#[test]
fn oversized_merkle_collections_are_rejected_not_allocated() {
    // A summary (or drill-down request) announcing more entries than
    // MAX_SEQ must be rejected by the length gate before any allocation.
    for (tag, extra) in [(21u8, 5u32), (22, 0)] {
        let mut body = Vec::new();
        body.push(0); // src
        body.extend_from_slice(&0u32.to_le_bytes()); // mepoch
        body.extend_from_slice(&1u32.to_le_bytes()); // one message
        body.push(tag);
        body.push(3); // level
        if extra > 0 {
            body.extend_from_slice(&extra.to_le_bytes()); // summary start
        }
        body.extend_from_slice(&(u32::MAX).to_le_bytes()); // ludicrous count
        let mut out = Vec::new();
        assert!(
            matches!(wire::decode_frame_body(&body, &mut out), Err(WireError::Oversized { .. })),
            "tag {tag} must hit the length gate"
        );
        assert!(out.is_empty());
    }
}

#[test]
fn summary_batch_splits_at_max_frame() {
    // A sweep's worth of big summaries that cannot fit one frame must
    // split at MAX_FRAME and decode back to the original sequence — the
    // same no-poison-frame property the flat-digest batches rely on.
    let hashes: Vec<u64> = (0..wire::MAX_SEQ as u64).collect(); // 512 KiB encoded
    let msgs: Vec<Msg> = (0..12)
        .map(|i| {
            Msg::MerkleSummary {
                s: Arc::new(MerkleSummary { level: 2, start: i * 64, hashes: hashes.clone() }),
            }
        })
        .collect();
    let mut buf = Vec::new();
    let frames = wire::encode_frames(NodeId(2), 3, &msgs, &mut buf);
    assert!(frames > 1, "6 MiB of summaries cannot fit one {}-byte frame", wire::MAX_FRAME);
    let mut out = Vec::new();
    let mut rest = &buf[..];
    for _ in 0..frames {
        // `next_frame` applies the receive gate (`MAX_FRAME`) to every prefix.
        let (body, tail) = wire::next_frame(rest).unwrap().expect("whole frame");
        let (src, mepoch) = wire::decode_frame_body(body, &mut out).unwrap();
        assert_eq!(src, NodeId(2));
        assert_eq!(mepoch, 3, "every split frame carries the same stamp");
        rest = tail;
    }
    assert!(rest.is_empty(), "no trailing bytes between frames");
    assert_eq!(out.len(), msgs.len());
    for (a, b) in msgs.iter().zip(&out) {
        assert!(same(a, b));
    }
}

#[test]
fn decode_reuses_the_provided_buffer() {
    // The transport decodes into pool-recycled buffers: capacity must be
    // reused, not reallocated, when it suffices.
    let msgs = vec![Msg::Ack { rid: 7 }, Msg::Ack { rid: 8 }];
    let mut buf = Vec::new();
    assert_eq!(wire::encode_frames(NodeId(0), 0, &msgs, &mut buf), 1);
    let mut out: Vec<Msg> = Vec::with_capacity(64);
    let cap = out.capacity();
    let ptr = out.as_ptr();
    wire::decode_frame_body(&buf[4..], &mut out).unwrap();
    assert_eq!(out.len(), 2);
    assert_eq!(out.capacity(), cap);
    assert_eq!(out.as_ptr(), ptr, "decode must fill the recycled buffer in place");
}

#[test]
fn oversized_batches_split_across_frames() {
    // A batch that cannot fit one frame must split, and every frame must
    // decode back to the original sequence — otherwise one big outbox
    // flush (e.g. a digest chunk's worth of repairs) would produce a frame
    // every receiver rejects, flapping the link forever.
    let big = Val::from_bytes(&vec![7u8; 60_000]);
    let msgs: Vec<Msg> = (0..100)
        .map(|i| Msg::WriteMsg { rid: i, key: Key(i), val: big.clone(), lc: Lc::ZERO })
        .collect();
    let mut buf = Vec::new();
    let frames = wire::encode_frames(NodeId(3), 0, &msgs, &mut buf);
    assert!(frames > 1, "6 MB of messages cannot fit one {}-byte frame", wire::MAX_FRAME);
    // Walk the concatenated frames exactly as a reader thread would.
    let mut out = Vec::new();
    let mut rest = &buf[..];
    for _ in 0..frames {
        let (body, tail) = wire::next_frame(rest).unwrap().expect("whole frame");
        let (src, _) = wire::decode_frame_body(body, &mut out).unwrap();
        assert_eq!(src, NodeId(3));
        rest = tail;
    }
    assert!(rest.is_empty(), "no trailing bytes between frames");
    assert_eq!(out.len(), msgs.len());
    for (a, b) in msgs.iter().zip(&out) {
        assert!(same(a, b));
    }
}

#[test]
fn empty_batch_still_produces_one_frame() {
    let mut buf = Vec::new();
    assert_eq!(wire::encode_frames(NodeId(0), 0, &[], &mut buf), 1);
    let (body, _) = wire::next_frame(&buf).unwrap().expect("whole frame");
    let mut out = Vec::new();
    wire::decode_frame_body(body, &mut out).unwrap();
    assert!(out.is_empty());
}
