//! The binary wire codec: how [`Msg`] batches (and the remote-session
//! client protocol) cross a real socket.
//!
//! The simulator moves `Msg` values in memory; this module is the only
//! serializer in the workspace: a hand-rolled, little-endian,
//! length-prefixed format with no reflection and no allocation beyond the
//! payload bytes themselves.
//!
//! # Frame layout
//!
//! A **peer frame** is one batch of [`kite_simnet::Outbox::flush`] on the
//! wire — every message one worker produced for one destination during one
//! scheduling step (§6.3 opportunistic batching survives the socket
//! boundary):
//!
//! ```text
//! [u32 body_len][u8 src_node][u32 mepoch][u32 msg_count][msg_count × Msg]
//! ```
//!
//! `mepoch` is the sender's membership epoch at flush time (see
//! `kite_common::membership`): the receiver's worker gates whole frames on
//! it, so a replica still speaking a retired configuration is corrected at
//! the transport boundary instead of corrupting quorum accounting.
//!
//! `body_len` counts everything after the length prefix and is bounded by
//! [`MAX_FRAME`]; a peer announcing more is treated as malformed. Each
//! `Msg` starts with a one-byte variant tag. `Arc`-shared payloads
//! (`Accept`'s command, `Commit`'s payload, digests) are encoded **once per
//! destination frame** — the refcount sharing that makes broadcast clones
//! cheap in memory becomes "serialize the payload once per peer" on the
//! wire, never once per retransmission buffer.
//!
//! # Decode contract
//!
//! Decoding is *total*: every error path returns [`WireError`], never
//! panics and never over-reads — a malformed or adversarial peer frame
//! must cost the sender its connection, not the receiving worker its
//! process. Frame bodies decode into caller-provided `Vec<Msg>` buffers so
//! the transport can recycle them through the same pools the in-process
//! runtimes use (the zero-allocation invariants survive the socket
//! boundary; see `kite-net`).
//!
//! # Client protocol
//!
//! Every client session speaks a tiny protocol on the node's fabric
//! listener: a hello claiming a session slot, then a stream of [`Op`]
//! submissions downstream and [`Completion`]s upstream. Completions carry
//! the op's session sequence number, which is how a client matches replies
//! to calls.
//!
//! # Accounting
//!
//! The simulator never encodes, yet its anti-entropy counters report wire
//! bytes: [`digest_wire_bytes`] and its siblings state the encoded length
//! of those messages next to the encoder that defines it.

use std::sync::Arc;

use kite_common::{ClusterConfig, Key, Lc, NodeId, NodeSet, OpId, SessionId, Val};
use kite_kvs::RmwCommit;

use crate::api::{Completion, Op, OpOutput};
use crate::msg::{
    Cmd, CommitPayload, DigestChunk, MerkleSummary, Msg, PromiseOutcome, Repair, WriteBack,
};

/// Upper bound on a frame body (everything after the 4-byte length
/// prefix). Sized so that any *single* message this codec can legitimately
/// produce fits (worst case: a [`Repair`] whose committed ring holds one
/// entry per session of the largest cluster `ClusterConfig::validate`
/// accepts, each result a full `kite_kvs::record::MAX_VAL` bytes ≈ 2.8 MiB —
/// asserted at compile time below); batches larger than this are split
/// across frames by [`encode_frames`]. A peer announcing more is
/// malformed, not big.
pub const MAX_FRAME: usize = 4 << 20;

/// Bound on one value's byte length on the wire.
pub const MAX_VAL: usize = 1 << 16;

/// Bound on collection lengths inside one message (ack batches, digest
/// entries, repair-request key lists, committed rings).
pub const MAX_SEQ: usize = 1 << 16;

// A key's ring holds one entry per session that committed on it: the
// fullest ring, every result (and the value) a store value of the longest
// length, rides one `AlreadyCommitted` promise reply — 18 bytes more than
// the same `RepairVal` (rid, ballot, delinquent flag and outcome tag, less
// the repair tag) — in one frame (9 bytes past the length prefix) that
// receivers accept.
const _: () = {
    let (ring, val) = (ClusterConfig::MAX_SESSIONS, kite_kvs::record::MAX_VAL);
    assert!(ring <= MAX_SEQ);
    assert!(9 + 18 + REPAIR_BYTES + val + ring * (RING_ENTRY_BYTES + val) <= MAX_FRAME);
};

/// Handshake magic: "KITE".
pub const MAGIC: u32 = 0x4B49_5445;

/// Wire-format version, bumped on any incompatible layout change (v2:
/// peer frames carry the sender's membership epoch; v3: an
/// `AlreadyCommitted` promise carries a [`Repair`], and `Lagging` nothing;
/// v4: leaf ranges index the 1.5× multiply-shift geometry).
pub const VERSION: u8 = 4;

/// Handshake kind byte: a peer fabric connection (node-to-node).
pub const KIND_PEER: u8 = 0;
/// Handshake kind byte: a remote client session connection.
pub const KIND_CLIENT: u8 = 1;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a buffer failed to decode. Every decode path returns this — a
/// malformed frame must drop the connection, never panic a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced content did.
    Truncated,
    /// A declared length exceeds its bound ([`MAX_FRAME`], [`MAX_VAL`] or
    /// [`MAX_SEQ`]).
    Oversized {
        /// What was oversized.
        what: &'static str,
        /// The declared length.
        len: usize,
    },
    /// An unknown variant tag.
    BadTag {
        /// Which tagged union was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A frame body was not fully consumed by its declared message count.
    Trailing {
        /// Bytes left over.
        left: usize,
    },
    /// The handshake magic or version did not match.
    BadHandshake,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversized { what, len } => write!(f, "oversized {what}: {len}"),
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#x}"),
            WireError::Trailing { left } => write!(f, "{left} trailing bytes in frame"),
            WireError::BadHandshake => write!(f, "bad handshake magic/version"),
        }
    }
}

impl std::error::Error for WireError {}

/// Decode result alias.
pub type WireResult<T> = Result<T, WireError>;

// ---------------------------------------------------------------------------
// Primitive cursor
// ---------------------------------------------------------------------------

/// A bounds-checked read cursor over a received buffer.
pub struct Cursor<'a> {
    buf: &'a [u8],
    off: usize,
}

// kite-lint: total-decode
impl<'a> Cursor<'a> {
    /// Start reading `buf` from offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, off: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.off
    }

    #[inline]
    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        // `checked_add` keeps this total even for adversarial `n` close to
        // usize::MAX; `get` turns every short read into Truncated.
        let end = self.off.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.off..end).ok_or(WireError::Truncated)?;
        self.off = end;
        Ok(s)
    }

    /// Read exactly `N` bytes as a fixed array (the total-decode shape for
    /// every fixed-width integer below: no slice indexing, no `expect`).
    #[inline]
    fn take_arr<const N: usize>(&mut self) -> WireResult<[u8; N]> {
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| WireError::Truncated)
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> WireResult<u8> {
        let [b] = self.take_arr::<1>()?;
        Ok(b)
    }

    /// Read a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_le_bytes(self.take_arr()?))
    }

    /// Read a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.take_arr()?))
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.take_arr()?))
    }
}

#[inline]
fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Domain primitives
// ---------------------------------------------------------------------------

#[inline]
fn put_lc(out: &mut Vec<u8>, lc: Lc) {
    // An Lc is already a packed u64 (version << 8 | mid); re-pack through
    // the accessors so the codec does not depend on the in-memory layout.
    put_u64(out, (lc.version() << 8) | lc.mid() as u64);
}

// kite-lint: total-decode
#[inline]
fn get_lc(c: &mut Cursor) -> WireResult<Lc> {
    let raw = c.u64()?;
    Ok(Lc::new(raw >> 8, NodeId(raw as u8)))
}

#[inline]
fn put_op_id(out: &mut Vec<u8>, op: OpId) {
    out.push(op.session.node.0);
    put_u32(out, op.session.slot);
    put_u64(out, op.seq);
}

// kite-lint: total-decode
#[inline]
fn get_op_id(c: &mut Cursor) -> WireResult<OpId> {
    let node = NodeId(c.u8()?);
    let slot = c.u32()?;
    let seq = c.u64()?;
    Ok(OpId::new(SessionId::new(node, slot), seq))
}

#[inline]
fn put_val(out: &mut Vec<u8>, v: &Val) {
    let b = v.as_bytes();
    // Hard assert, not debug: an oversized value slipping onto the wire
    // would be rejected by *every* receiving peer's decode gate, so the op
    // would retransmit the same poison frame and flap the link forever — a
    // silent distributed livelock. Failing fast at the local producer is
    // the only recoverable place.
    assert!(b.len() <= MAX_VAL, "value of {} bytes exceeds the wire bound ({MAX_VAL})", b.len());
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

// kite-lint: total-decode
#[inline]
fn get_val(c: &mut Cursor) -> WireResult<Val> {
    let len = c.u32()? as usize;
    if len > MAX_VAL {
        return Err(WireError::Oversized { what: "value", len });
    }
    Ok(Val::from_bytes(c.take(len)?))
}

// kite-lint: total-decode
fn get_seq_len(c: &mut Cursor, what: &'static str) -> WireResult<usize> {
    let len = c.u32()? as usize;
    if len > MAX_SEQ {
        return Err(WireError::Oversized { what, len });
    }
    Ok(len)
}

/// A [`Repair`], as both [`Msg::RepairVal`] and
/// [`PromiseOutcome::AlreadyCommitted`] carry it: key, value, stamp, slot
/// and the ring of `(op-id, slot, result)` entries.
fn put_repair(out: &mut Vec<u8>, r: &Repair) {
    put_u64(out, r.key.0);
    put_val(out, &r.val);
    put_lc(out, r.lc);
    put_u64(out, r.slot);
    put_u32(out, r.ring.len() as u32);
    for e in &r.ring {
        put_op_id(out, e.op);
        put_u64(out, e.slot);
        put_val(out, &e.result);
    }
}

// kite-lint: total-decode
fn get_repair(c: &mut Cursor) -> WireResult<Box<Repair>> {
    let key = Key(c.u64()?);
    let val = get_val(c)?;
    let lc = get_lc(c)?;
    let slot = c.u64()?;
    let n = get_seq_len(c, "ring")?;
    let mut ring = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let op = get_op_id(c)?;
        let slot = c.u64()?;
        let result = get_val(c)?;
        ring.push(RmwCommit { op, slot, result });
    }
    Ok(Box::new(Repair { key, val, lc, slot, ring }))
}

// ---------------------------------------------------------------------------
// Msg codec
// ---------------------------------------------------------------------------

// Variant tags. Append-only: renumbering is a wire-format break (bump
// VERSION instead).
const T_ES_WRITE: u8 = 0;
const T_ACK: u8 = 1;
const T_ACK_BATCH: u8 = 2;
const T_RTS_REQ: u8 = 3;
const T_RTS_REP: u8 = 4;
const T_READ_REQ: u8 = 5;
const T_READ_REP: u8 = 6;
const T_WRITE: u8 = 7;
const T_WRITE_ACQ: u8 = 8;
const T_WRITE_ACK: u8 = 9;
const T_SLOW_RELEASE: u8 = 10;
const T_SLOW_RELEASE_ACK: u8 = 11;
const T_RESET_BIT: u8 = 12;
const T_PROPOSE: u8 = 13;
const T_PROMISE_REP: u8 = 14;
const T_ACCEPT: u8 = 15;
const T_ACCEPT_REP: u8 = 16;
const T_COMMIT: u8 = 17;
const T_DIGEST: u8 = 18;
const T_REPAIR_REQ: u8 = 19;
const T_REPAIR_VAL: u8 = 20;
const T_MERKLE_SUMMARY: u8 = 21;
const T_MERKLE_REQ: u8 = 22;

// PromiseOutcome sub-tags.
const P_PROMISED: u8 = 0;
const P_PROMISED_ACCEPTED: u8 = 1;
const P_NACK: u8 = 2;
const P_ALREADY: u8 = 3;
const P_LAGGING: u8 = 4;

fn put_cmd(out: &mut Vec<u8>, cmd: &Cmd) {
    put_op_id(out, cmd.op);
    put_val(out, &cmd.new_val);
    put_val(out, &cmd.result);
    put_lc(out, cmd.lc);
}

fn get_cmd(c: &mut Cursor) -> WireResult<Cmd> {
    Ok(Cmd { op: get_op_id(c)?, new_val: get_val(c)?, result: get_val(c)?, lc: get_lc(c)? })
}

/// Encode one message onto `out` (tag byte + body). The inverse of
/// [`decode_msg`].
pub fn encode_msg(m: &Msg, out: &mut Vec<u8>) {
    match m {
        Msg::EsWrite { rid, key, val, lc } => {
            out.push(T_ES_WRITE);
            put_u64(out, *rid);
            put_u64(out, key.0);
            put_val(out, val);
            put_lc(out, *lc);
        }
        Msg::Ack { rid } => {
            out.push(T_ACK);
            put_u64(out, *rid);
        }
        Msg::AckBatch { rids } => {
            out.push(T_ACK_BATCH);
            put_u32(out, rids.len() as u32);
            for r in rids {
                put_u64(out, *r);
            }
        }
        Msg::RtsReq { rid, key } => {
            out.push(T_RTS_REQ);
            put_u64(out, *rid);
            put_u64(out, key.0);
        }
        Msg::RtsRep { rid, lc } => {
            out.push(T_RTS_REP);
            put_u64(out, *rid);
            put_lc(out, *lc);
        }
        Msg::ReadReq { rid, key, acq } => {
            out.push(T_READ_REQ);
            put_u64(out, *rid);
            put_u64(out, key.0);
            match acq {
                None => out.push(0),
                Some(op) => {
                    out.push(1);
                    put_op_id(out, *op);
                }
            }
        }
        Msg::ReadRep { rid, val, lc, delinquent } => {
            out.push(T_READ_REP);
            put_u64(out, *rid);
            put_val(out, val);
            put_lc(out, *lc);
            out.push(*delinquent as u8);
        }
        Msg::WriteMsg { rid, key, val, lc } => {
            out.push(T_WRITE);
            put_u64(out, *rid);
            put_u64(out, key.0);
            put_val(out, val);
            put_lc(out, *lc);
        }
        Msg::WriteAcq { rid, wb } => {
            out.push(T_WRITE_ACQ);
            put_u64(out, *rid);
            put_u64(out, wb.key.0);
            put_val(out, &wb.val);
            put_lc(out, wb.lc);
            put_op_id(out, wb.acq);
        }
        Msg::WriteAck { rid, delinquent } => {
            out.push(T_WRITE_ACK);
            put_u64(out, *rid);
            out.push(*delinquent as u8);
        }
        Msg::SlowRelease { rid, dm } => {
            out.push(T_SLOW_RELEASE);
            put_u64(out, *rid);
            put_u16(out, dm.0);
        }
        Msg::SlowReleaseAck { rid } => {
            out.push(T_SLOW_RELEASE_ACK);
            put_u64(out, *rid);
        }
        Msg::ResetBit { acq } => {
            out.push(T_RESET_BIT);
            put_op_id(out, *acq);
        }
        Msg::Propose { rid, key, slot, ballot, op } => {
            out.push(T_PROPOSE);
            put_u64(out, *rid);
            put_u64(out, key.0);
            put_u64(out, *slot);
            put_lc(out, *ballot);
            put_op_id(out, *op);
        }
        Msg::PromiseRep { rid, ballot, outcome, delinquent } => {
            out.push(T_PROMISE_REP);
            put_u64(out, *rid);
            put_lc(out, *ballot);
            out.push(*delinquent as u8);
            match outcome {
                PromiseOutcome::Promised { accepted: None } => out.push(P_PROMISED),
                PromiseOutcome::Promised { accepted: Some(b) } => {
                    out.push(P_PROMISED_ACCEPTED);
                    put_lc(out, b.0);
                    put_cmd(out, &b.1);
                }
                PromiseOutcome::NackBallot { promised } => {
                    out.push(P_NACK);
                    put_lc(out, *promised);
                }
                PromiseOutcome::AlreadyCommitted(r) => {
                    out.push(P_ALREADY);
                    put_repair(out, r);
                }
                PromiseOutcome::Lagging => out.push(P_LAGGING),
            }
        }
        Msg::Accept { rid, key, slot, ballot, cmd } => {
            out.push(T_ACCEPT);
            put_u64(out, *rid);
            put_u64(out, key.0);
            put_u64(out, *slot);
            put_lc(out, *ballot);
            put_cmd(out, cmd);
        }
        Msg::AcceptRep { rid, ballot, ok, promised, delinquent } => {
            out.push(T_ACCEPT_REP);
            put_u64(out, *rid);
            put_lc(out, *ballot);
            out.push(*ok as u8);
            put_lc(out, *promised);
            out.push(*delinquent as u8);
        }
        Msg::Commit { rid, key, c } => {
            out.push(T_COMMIT);
            put_u64(out, *rid);
            put_u64(out, key.0);
            put_u64(out, c.slot);
            put_val(out, &c.val);
            put_lc(out, c.lc);
            match &c.meta {
                None => out.push(0),
                Some((op, res)) => {
                    out.push(1);
                    put_op_id(out, *op);
                    put_val(out, res);
                }
            }
        }
        Msg::Digest { d } => {
            out.push(T_DIGEST);
            put_u32(out, d.entries.len() as u32);
            for (key, lc) in &d.entries {
                put_u64(out, key.0);
                put_lc(out, *lc);
            }
        }
        Msg::RepairReq { keys } => {
            out.push(T_REPAIR_REQ);
            put_u32(out, keys.len() as u32);
            for k in keys.iter() {
                put_u64(out, k.0);
            }
        }
        Msg::RepairVal { r } => {
            out.push(T_REPAIR_VAL);
            put_repair(out, r);
        }
        Msg::MerkleSummary { s } => {
            out.push(T_MERKLE_SUMMARY);
            out.push(s.level);
            put_u32(out, s.start);
            put_u32(out, s.hashes.len() as u32);
            for h in &s.hashes {
                put_u64(out, *h);
            }
        }
        Msg::MerkleReq { level, buckets } => {
            out.push(T_MERKLE_REQ);
            out.push(*level);
            put_u32(out, buckets.len() as u32);
            for b in buckets.iter() {
                put_u32(out, *b);
            }
        }
    }
}

/// [`encode_msg`]'s length for a [`Msg::Digest`] of `entries` `(key, Lc)`
/// pairs: tag + count + 16 per entry.
#[inline]
pub fn digest_wire_bytes(entries: usize) -> u64 {
    5 + 16 * entries as u64
}

/// [`encode_msg`]'s length for a [`Msg::MerkleSummary`] of `hashes` range
/// hashes: tag + level + start + count + 8 per hash.
#[inline]
pub fn summary_wire_bytes(hashes: usize) -> u64 {
    10 + 8 * hashes as u64
}

/// [`encode_msg`]'s length for a [`Msg::MerkleReq`] of `buckets` buckets:
/// tag + level + count + 4 per bucket.
#[inline]
pub fn req_wire_bytes(buckets: usize) -> u64 {
    6 + 4 * buckets as u64
}

/// A [`Msg::RepairVal`]'s fixed bytes: tag + key + value length + Lc +
/// slot + ring length.
const REPAIR_BYTES: usize = 33;
/// A ring entry's fixed bytes: op-id + slot + result length.
const RING_ENTRY_BYTES: usize = 25;

/// [`encode_msg`]'s length for a [`Msg::RepairVal`]: tag + key +
/// len-prefixed value + Lc + slot + ring of `(op-id, slot, len-prefixed
/// result)` entries.
#[inline]
pub fn repair_wire_bytes(r: &Repair) -> u64 {
    let ring = r.ring.iter().map(|c| RING_ENTRY_BYTES + c.result.as_bytes().len()).sum::<usize>();
    (REPAIR_BYTES + r.val.as_bytes().len() + ring) as u64
}

// kite-lint: total-decode
/// Decode one message from the cursor. The inverse of [`encode_msg`].
pub fn decode_msg(c: &mut Cursor) -> WireResult<Msg> {
    let tag = c.u8()?;
    Ok(match tag {
        T_ES_WRITE => Msg::EsWrite {
            rid: c.u64()?,
            key: Key(c.u64()?),
            val: get_val(c)?,
            lc: get_lc(c)?,
        },
        T_ACK => Msg::Ack { rid: c.u64()? },
        T_ACK_BATCH => {
            let n = get_seq_len(c, "ack batch")?;
            let mut rids = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                rids.push(c.u64()?);
            }
            Msg::AckBatch { rids }
        }
        T_RTS_REQ => Msg::RtsReq { rid: c.u64()?, key: Key(c.u64()?) },
        T_RTS_REP => Msg::RtsRep { rid: c.u64()?, lc: get_lc(c)? },
        T_READ_REQ => {
            let rid = c.u64()?;
            let key = Key(c.u64()?);
            let acq = match c.u8()? {
                0 => None,
                1 => Some(get_op_id(c)?),
                t => return Err(WireError::BadTag { what: "read-req acq", tag: t }),
            };
            Msg::ReadReq { rid, key, acq }
        }
        T_READ_REP => Msg::ReadRep {
            rid: c.u64()?,
            val: get_val(c)?,
            lc: get_lc(c)?,
            delinquent: c.u8()? != 0,
        },
        T_WRITE => Msg::WriteMsg {
            rid: c.u64()?,
            key: Key(c.u64()?),
            val: get_val(c)?,
            lc: get_lc(c)?,
        },
        T_WRITE_ACQ => {
            let rid = c.u64()?;
            let key = Key(c.u64()?);
            let val = get_val(c)?;
            let lc = get_lc(c)?;
            let acq = get_op_id(c)?;
            Msg::WriteAcq { rid, wb: Arc::new(WriteBack { key, val, lc, acq }) }
        }
        T_WRITE_ACK => Msg::WriteAck { rid: c.u64()?, delinquent: c.u8()? != 0 },
        T_SLOW_RELEASE => Msg::SlowRelease { rid: c.u64()?, dm: NodeSet(c.u16()?) },
        T_SLOW_RELEASE_ACK => Msg::SlowReleaseAck { rid: c.u64()? },
        T_RESET_BIT => Msg::ResetBit { acq: get_op_id(c)? },
        T_PROPOSE => Msg::Propose {
            rid: c.u64()?,
            key: Key(c.u64()?),
            slot: c.u64()?,
            ballot: get_lc(c)?,
            op: get_op_id(c)?,
        },
        T_PROMISE_REP => {
            let rid = c.u64()?;
            let ballot = get_lc(c)?;
            let delinquent = c.u8()? != 0;
            let outcome = match c.u8()? {
                P_PROMISED => PromiseOutcome::Promised { accepted: None },
                P_PROMISED_ACCEPTED => {
                    let b = get_lc(c)?;
                    let cmd = get_cmd(c)?;
                    PromiseOutcome::Promised { accepted: Some(Box::new((b, cmd))) }
                }
                P_NACK => PromiseOutcome::NackBallot { promised: get_lc(c)? },
                P_ALREADY => PromiseOutcome::AlreadyCommitted(get_repair(c)?),
                P_LAGGING => PromiseOutcome::Lagging,
                t => return Err(WireError::BadTag { what: "promise outcome", tag: t }),
            };
            Msg::PromiseRep { rid, ballot, outcome, delinquent }
        }
        T_ACCEPT => Msg::Accept {
            rid: c.u64()?,
            key: Key(c.u64()?),
            slot: c.u64()?,
            ballot: get_lc(c)?,
            cmd: Arc::new(get_cmd(c)?),
        },
        T_ACCEPT_REP => Msg::AcceptRep {
            rid: c.u64()?,
            ballot: get_lc(c)?,
            ok: c.u8()? != 0,
            promised: get_lc(c)?,
            delinquent: c.u8()? != 0,
        },
        T_COMMIT => {
            let rid = c.u64()?;
            let key = Key(c.u64()?);
            let slot = c.u64()?;
            let val = get_val(c)?;
            let lc = get_lc(c)?;
            let meta = match c.u8()? {
                0 => None,
                1 => {
                    let op = get_op_id(c)?;
                    let res = get_val(c)?;
                    Some((op, res))
                }
                t => return Err(WireError::BadTag { what: "commit meta", tag: t }),
            };
            Msg::Commit { rid, key, c: Arc::new(CommitPayload { slot, val, lc, meta }) }
        }
        T_DIGEST => {
            let n = get_seq_len(c, "digest")?;
            let mut entries = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let key = Key(c.u64()?);
                let lc = get_lc(c)?;
                entries.push((key, lc));
            }
            Msg::Digest { d: Arc::new(DigestChunk { entries }) }
        }
        T_REPAIR_REQ => {
            let n = get_seq_len(c, "repair keys")?;
            let mut keys = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                keys.push(Key(c.u64()?));
            }
            Msg::RepairReq { keys: keys.into_boxed_slice() }
        }
        T_REPAIR_VAL => Msg::RepairVal { r: get_repair(c)? },
        T_MERKLE_SUMMARY => {
            let level = c.u8()?;
            let start = c.u32()?;
            let n = get_seq_len(c, "merkle summary")?;
            let mut hashes = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                hashes.push(c.u64()?);
            }
            Msg::MerkleSummary { s: Arc::new(MerkleSummary { level, start, hashes }) }
        }
        T_MERKLE_REQ => {
            let level = c.u8()?;
            let n = get_seq_len(c, "merkle req")?;
            let mut buckets = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                buckets.push(c.u32()?);
            }
            Msg::MerkleReq { level, buckets: buckets.into() }
        }
        t => return Err(WireError::BadTag { what: "msg", tag: t }),
    })
}

// ---------------------------------------------------------------------------
// Peer frames
// ---------------------------------------------------------------------------

/// Append `msgs` from `src` at membership epoch `mepoch` onto `out` as
/// **one or more** back-to-back peer frames (length prefixes included),
/// splitting wherever a frame would exceed [`MAX_FRAME`] bytes or
/// [`MAX_SEQ`] messages. Returns the number of frames written.
///
/// This is the transport's encoder: without the split, one legitimately
/// large outbox batch (say, a whole digest chunk's worth of repair values)
/// would encode into a frame every receiver must reject — and since the
/// retransmission layer would faithfully rebuild the same batch, the link
/// would flap forever. A single message that cannot fit a frame by itself
/// is a codec-bound violation and panics (same rationale as the value
/// bound in `put_val`: failing fast locally beats a distributed livelock).
pub fn encode_frames(src: NodeId, mepoch: u32, msgs: &[Msg], out: &mut Vec<u8>) -> usize {
    let mut frames = 0;
    let mut i = 0;
    while i < msgs.len() || frames == 0 {
        let len_at = out.len();
        put_u32(out, 0); // length, patched below
        out.push(src.0);
        put_u32(out, mepoch);
        let count_at = out.len();
        put_u32(out, 0); // count, patched below
        let mut n: usize = 0;
        while i < msgs.len() && n < MAX_SEQ {
            let msg_at = out.len();
            encode_msg(&msgs[i], out);
            if out.len() - len_at - 4 > MAX_FRAME {
                assert!(n > 0, "single message exceeds MAX_FRAME — codec bound violated");
                out.truncate(msg_at); // re-encode this message in the next frame
                break;
            }
            i += 1;
            n += 1;
        }
        out[count_at..count_at + 4].copy_from_slice(&(n as u32).to_le_bytes());
        let body_len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
        frames += 1;
    }
    frames
}

// kite-lint: total-decode
/// Validate a frame length prefix. Returns the body length to read next.
pub fn frame_body_len(prefix: [u8; 4]) -> WireResult<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized { what: "frame", len });
    }
    if len < 5 {
        // The shortest legal body either direction (client `HelloErr` with
        // an empty reason) is 5 bytes; a peer frame needs 9 (src + mepoch
        // + count), which the body cursor enforces as `Truncated`.
        return Err(WireError::Truncated);
    }
    Ok(len)
}

// kite-lint: total-decode
/// Split the next length-prefixed frame (peer or client) off the front of
/// `buf`: `Ok(Some((body, rest)))` once the whole frame is buffered,
/// `Ok(None)` while it has not fully arrived, or the length prefix's
/// error. Every reader of a frame stream splits it here.
pub fn next_frame(buf: &[u8]) -> WireResult<Option<(&[u8], &[u8])>> {
    let Some((prefix, rest)) = buf.split_first_chunk::<4>() else { return Ok(None) };
    let len = frame_body_len(*prefix)?;
    Ok(rest.split_at_checked(len))
}

// kite-lint: total-decode
/// Decode a peer frame body into `into` (appended; the caller hands in a
/// pool-recycled buffer). Returns the sending node and its membership
/// epoch stamp. The body must be consumed exactly.
pub fn decode_frame_body(body: &[u8], into: &mut Vec<Msg>) -> WireResult<(NodeId, u32)> {
    let mut c = Cursor::new(body);
    let src = NodeId(c.u8()?);
    let mepoch = c.u32()?;
    let count = c.u32()? as usize;
    if count > MAX_SEQ {
        return Err(WireError::Oversized { what: "frame msg count", len: count });
    }
    let base = into.len();
    for _ in 0..count {
        match decode_msg(&mut c) {
            Ok(m) => into.push(m),
            Err(e) => {
                into.truncate(base); // leave the buffer clean for reuse
                return Err(e);
            }
        }
    }
    if c.remaining() != 0 {
        let left = c.remaining();
        into.truncate(base);
        return Err(WireError::Trailing { left });
    }
    Ok((src, mepoch))
}

// ---------------------------------------------------------------------------
// Client protocol
// ---------------------------------------------------------------------------

/// Client→server frame kinds.
const C_SUBMIT: u8 = 0xC2;
/// Server→client frame kinds.
const C_COMPLETION: u8 = 0xC3;
const C_HELLO_OK: u8 = 0xC4;
const C_HELLO_ERR: u8 = 0xC5;

// Op tags.
const O_READ: u8 = 0;
const O_WRITE: u8 = 1;
const O_RELEASE: u8 = 2;
const O_ACQUIRE: u8 = 3;
const O_FAA: u8 = 4;
const O_CAS_WEAK: u8 = 5;
const O_CAS_STRONG: u8 = 6;

// OpOutput tags.
const R_DONE: u8 = 0;
const R_VALUE: u8 = 1;
const R_FAA: u8 = 2;
const R_CAS: u8 = 3;

fn put_op(out: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Read { key } => {
            out.push(O_READ);
            put_u64(out, key.0);
        }
        Op::Write { key, val } => {
            out.push(O_WRITE);
            put_u64(out, key.0);
            put_val(out, val);
        }
        Op::Release { key, val } => {
            out.push(O_RELEASE);
            put_u64(out, key.0);
            put_val(out, val);
        }
        Op::Acquire { key } => {
            out.push(O_ACQUIRE);
            put_u64(out, key.0);
        }
        Op::Faa { key, delta } => {
            out.push(O_FAA);
            put_u64(out, key.0);
            put_u64(out, *delta);
        }
        Op::CasWeak { key, expect, new } => {
            out.push(O_CAS_WEAK);
            put_u64(out, key.0);
            put_val(out, expect);
            put_val(out, new);
        }
        Op::CasStrong { key, expect, new } => {
            out.push(O_CAS_STRONG);
            put_u64(out, key.0);
            put_val(out, expect);
            put_val(out, new);
        }
    }
}

fn get_op(c: &mut Cursor) -> WireResult<Op> {
    Ok(match c.u8()? {
        O_READ => Op::Read { key: Key(c.u64()?) },
        O_WRITE => Op::Write { key: Key(c.u64()?), val: get_val(c)? },
        O_RELEASE => Op::Release { key: Key(c.u64()?), val: get_val(c)? },
        O_ACQUIRE => Op::Acquire { key: Key(c.u64()?) },
        O_FAA => Op::Faa { key: Key(c.u64()?), delta: c.u64()? },
        O_CAS_WEAK => Op::CasWeak { key: Key(c.u64()?), expect: get_val(c)?, new: get_val(c)? },
        O_CAS_STRONG => {
            Op::CasStrong { key: Key(c.u64()?), expect: get_val(c)?, new: get_val(c)? }
        }
        t => return Err(WireError::BadTag { what: "op", tag: t }),
    })
}

fn put_output(out: &mut Vec<u8>, o: &OpOutput) {
    match o {
        OpOutput::Done => out.push(R_DONE),
        OpOutput::Value(v) => {
            out.push(R_VALUE);
            put_val(out, v);
        }
        OpOutput::Faa(old) => {
            out.push(R_FAA);
            put_u64(out, *old);
        }
        OpOutput::Cas { ok, observed } => {
            out.push(R_CAS);
            out.push(*ok as u8);
            put_val(out, observed);
        }
    }
}

fn get_output(c: &mut Cursor) -> WireResult<OpOutput> {
    Ok(match c.u8()? {
        R_DONE => OpOutput::Done,
        R_VALUE => OpOutput::Value(get_val(c)?),
        R_FAA => OpOutput::Faa(c.u64()?),
        R_CAS => OpOutput::Cas { ok: c.u8()? != 0, observed: get_val(c)? },
        t => return Err(WireError::BadTag { what: "op output", tag: t }),
    })
}

/// One frame of the client protocol, either direction.
#[derive(Clone, Debug)]
pub enum ClientFrame {
    /// Client → server: one operation submission. Session order is the
    /// stream order; the server assigns sequence numbers accordingly.
    Submit(Op),
    /// Server → client: one completed operation (session order).
    Completion(Completion),
    /// Server → client: the hello's session claim succeeded.
    HelloOk {
        /// The claimed session's id.
        session: SessionId,
    },
    /// Server → client: the session claim failed (slot taken/out of range).
    HelloErr {
        /// Human-readable reason.
        reason: String,
    },
}

/// Append one length-prefixed client-protocol frame onto `out`.
pub fn encode_client_frame(f: &ClientFrame, out: &mut Vec<u8>) {
    let len_at = out.len();
    put_u32(out, 0);
    match f {
        ClientFrame::Submit(op) => {
            out.push(C_SUBMIT);
            put_op(out, op);
        }
        ClientFrame::Completion(c) => {
            out.push(C_COMPLETION);
            put_op_id(out, c.op_id);
            put_op(out, &c.op);
            put_output(out, &c.output);
            put_u64(out, c.invoked_at);
            put_u64(out, c.completed_at);
        }
        ClientFrame::HelloOk { session } => {
            out.push(C_HELLO_OK);
            out.push(session.node.0);
            put_u32(out, session.slot);
        }
        ClientFrame::HelloErr { reason } => {
            out.push(C_HELLO_ERR);
            let b = reason.as_bytes();
            let n = b.len().min(MAX_VAL);
            put_u32(out, n as u32);
            out.extend_from_slice(&b[..n]);
        }
    }
    let body_len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
}

// kite-lint: total-decode
/// Decode one client-protocol frame body (everything after the length
/// prefix). The body must be consumed exactly.
pub fn decode_client_frame(body: &[u8]) -> WireResult<ClientFrame> {
    let mut c = Cursor::new(body);
    let f = match c.u8()? {
        C_SUBMIT => ClientFrame::Submit(get_op(&mut c)?),
        C_COMPLETION => {
            let op_id = get_op_id(&mut c)?;
            let op = get_op(&mut c)?;
            let output = get_output(&mut c)?;
            let invoked_at = c.u64()?;
            let completed_at = c.u64()?;
            ClientFrame::Completion(Completion { op_id, op, output, invoked_at, completed_at })
        }
        C_HELLO_OK => {
            let node = NodeId(c.u8()?);
            let slot = c.u32()?;
            ClientFrame::HelloOk { session: SessionId::new(node, slot) }
        }
        C_HELLO_ERR => {
            let n = get_seq_len(&mut c, "hello error")?;
            let reason = String::from_utf8_lossy(c.take(n)?).into_owned();
            ClientFrame::HelloErr { reason }
        }
        t => return Err(WireError::BadTag { what: "client frame", tag: t }),
    };
    if c.remaining() != 0 {
        return Err(WireError::Trailing { left: c.remaining() });
    }
    Ok(f)
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// What a freshly accepted connection announced itself as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hello {
    /// A peer fabric connection: traffic from `(node, worker)`.
    Peer {
        /// The dialing node.
        node: NodeId,
        /// The dialing worker index (worker peering, §6.3).
        worker: u16,
    },
    /// A remote client claiming session `slot` on this node.
    Client {
        /// The session slot being claimed.
        slot: u32,
    },
}

/// Byte length of an encoded hello (both kinds pad to this).
pub const HELLO_LEN: usize = 10;

/// Encode a hello to the fixed [`HELLO_LEN`]-byte layout.
pub fn encode_hello(h: Hello) -> [u8; HELLO_LEN] {
    let mut b = [0u8; HELLO_LEN];
    b[..4].copy_from_slice(&MAGIC.to_le_bytes());
    b[4] = VERSION;
    match h {
        Hello::Peer { node, worker } => {
            b[5] = KIND_PEER;
            b[6] = node.0;
            b[7..9].copy_from_slice(&worker.to_le_bytes());
        }
        Hello::Client { slot } => {
            b[5] = KIND_CLIENT;
            b[6..10].copy_from_slice(&slot.to_le_bytes());
        }
    }
    b
}

/// Decode a [`HELLO_LEN`]-byte hello.
// kite-lint: total-decode
pub fn decode_hello(b: &[u8; HELLO_LEN]) -> WireResult<Hello> {
    let mut c = Cursor::new(b);
    if c.u32()? != MAGIC || c.u8()? != VERSION {
        return Err(WireError::BadHandshake);
    }
    match c.u8()? {
        KIND_PEER => Ok(Hello::Peer { node: NodeId(c.u8()?), worker: c.u16()? }),
        KIND_CLIENT => Ok(Hello::Client { slot: c.u32()? }),
        t => Err(WireError::BadTag { what: "hello kind", tag: t }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_verify::check::{check, Src};

    fn sample_msgs() -> Vec<Msg> {
        let op = OpId::new(SessionId::new(NodeId(3), 9), 77);
        vec![
            Msg::EsWrite { rid: 1, key: Key(2), val: Val::from_bytes(b"abc"), lc: Lc::new(4, NodeId(1)) },
            Msg::AckBatch { rids: vec![1, 2, 3] },
            Msg::ReadReq { rid: 5, key: Key(6), acq: Some(op) },
            Msg::PromiseRep {
                rid: 9,
                ballot: Lc::new(7, NodeId(2)),
                outcome: PromiseOutcome::AlreadyCommitted(Box::new(Repair {
                    key: Key(2),
                    val: Val::from_u64(10),
                    lc: Lc::new(8, NodeId(0)),
                    slot: 3,
                    ring: vec![RmwCommit { op, slot: 2, result: Val::from_u64(1) }],
                })),
                delinquent: true,
            },
        ]
    }

    #[test]
    fn frame_round_trips() {
        let msgs = sample_msgs();
        let mut buf = Vec::new();
        assert_eq!(encode_frames(NodeId(4), 7, &msgs, &mut buf), 1);
        let (body, rest) = next_frame(&buf).unwrap().unwrap();
        assert!(rest.is_empty());
        let mut got = Vec::new();
        let (src, mepoch) = decode_frame_body(body, &mut got).unwrap();
        assert_eq!(src, NodeId(4));
        assert_eq!(mepoch, 7);
        assert_eq!(format!("{msgs:?}"), format!("{got:?}"));
    }

    #[test]
    fn truncated_and_trailing_frames_are_errors() {
        let msgs = sample_msgs();
        let mut buf = Vec::new();
        assert_eq!(encode_frames(NodeId(0), 0, &msgs, &mut buf), 1);
        // Truncated at every prefix length: must error, never panic.
        for cut in 4..buf.len() - 1 {
            let mut got = Vec::new();
            assert!(decode_frame_body(&buf[4..cut], &mut got).is_err(), "cut at {cut}");
            assert!(got.is_empty(), "failed decode must leave the buffer clean");
        }
        // Trailing garbage after the declared count.
        let mut longer = buf[4..].to_vec();
        longer.push(0xAA);
        let mut got = Vec::new();
        assert!(matches!(
            decode_frame_body(&longer, &mut got),
            Err(WireError::Trailing { left: 1 })
        ));
    }

    #[test]
    fn oversized_frame_prefix_rejected() {
        let prefix = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert!(matches!(frame_body_len(prefix), Err(WireError::Oversized { .. })));
        assert!(frame_body_len(3u32.to_le_bytes()).is_err());
        assert!(matches!(next_frame(&prefix), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn next_frame_waits_for_the_whole_frame() {
        let mut buf = Vec::new();
        assert_eq!(encode_frames(NodeId(1), 0, &sample_msgs(), &mut buf), 1);
        let first = buf.len();
        let session = SessionId::new(NodeId(1), 2);
        encode_client_frame(&ClientFrame::HelloOk { session }, &mut buf);
        for cut in 0..first {
            assert_eq!(next_frame(&buf[..cut]), Ok(None), "a {cut}-byte prefix is not a frame");
        }
        let (body, rest) = next_frame(&buf).unwrap().unwrap();
        assert_eq!((body.len(), rest.len()), (first - 4, buf.len() - first));
        let (body, rest) = next_frame(rest).unwrap().unwrap();
        assert!(rest.is_empty());
        assert!(matches!(decode_client_frame(body), Ok(ClientFrame::HelloOk { .. })));
    }

    #[test]
    fn client_frames_round_trip() {
        let op = Op::CasStrong { key: Key(9), expect: Val::from_u64(1), new: Val::from_u64(2) };
        let c = Completion {
            op_id: OpId::new(SessionId::new(NodeId(1), 2), 3),
            op: op.clone(),
            output: OpOutput::Cas { ok: true, observed: Val::from_u64(1) },
            invoked_at: 10,
            completed_at: 20,
        };
        for f in [
            ClientFrame::Submit(op),
            ClientFrame::Completion(c),
            ClientFrame::HelloOk { session: SessionId::new(NodeId(2), 7) },
            ClientFrame::HelloErr { reason: "slot taken".into() },
        ] {
            let mut buf = Vec::new();
            encode_client_frame(&f, &mut buf);
            let got = decode_client_frame(&buf[4..]).unwrap();
            assert_eq!(format!("{f:?}"), format!("{got:?}"));
        }
    }

    #[test]
    fn hello_round_trips_and_rejects_garbage() {
        for h in [Hello::Peer { node: NodeId(3), worker: 2 }, Hello::Client { slot: 41 }] {
            assert_eq!(decode_hello(&encode_hello(h)).unwrap(), h);
        }
        let mut bad = encode_hello(Hello::Client { slot: 0 });
        bad[0] ^= 0xFF;
        assert_eq!(decode_hello(&bad), Err(WireError::BadHandshake));
        // A v3 peer indexes Merkle leaves by another geometry: refused.
        let mut old = encode_hello(Hello::Peer { node: NodeId(1), worker: 0 });
        assert_eq!(old[4], 4);
        old[4] = 3;
        assert_eq!(decode_hello(&old), Err(WireError::BadHandshake));
        let mut bad_kind = encode_hello(Hello::Client { slot: 0 });
        bad_kind[5] = 9;
        assert!(matches!(decode_hello(&bad_kind), Err(WireError::BadTag { .. })));
    }

    /// What [`encode_msg`] really puts on the socket for `m`.
    fn encoded_len(m: &Msg) -> u64 {
        let mut out = Vec::new();
        encode_msg(m, &mut out);
        out.len() as u64
    }

    // `ae_digest_bytes` / `ae_repair_bytes` are added up from the four
    // `*_wire_bytes` functions, not from encoded frames (the sim never
    // encodes). An encoder change that leaves one behind would silently
    // skew `ae.digest_bytes_per_op` on the sim.
    #[test]
    fn digest_wire_bytes_is_the_encoded_length() {
        check(256, |src| {
            let entries: Vec<(Key, Lc)> = src
                .vec(0..600, Src::u64)
                .into_iter()
                .map(|k| (Key(k), Lc::new(k >> 24, NodeId((k % 16) as u8))))
                .collect();
            let n = entries.len();
            let m = Msg::Digest { d: Arc::new(DigestChunk { entries }) };
            assert_eq!(digest_wire_bytes(n), encoded_len(&m));
        });
    }

    #[test]
    fn summary_wire_bytes_is_the_encoded_length() {
        check(256, |src| {
            let hashes = src.vec(0..300, Src::u64);
            let (level, start, n) = (src.below(8) as u8, src.u32(), hashes.len());
            let m = Msg::MerkleSummary { s: Arc::new(MerkleSummary { level, start, hashes }) };
            assert_eq!(summary_wire_bytes(n), encoded_len(&m));
        });
    }

    #[test]
    fn req_wire_bytes_is_the_encoded_length() {
        check(256, |src| {
            let buckets = src.vec(0..300, Src::u32);
            let (level, n) = (src.below(8) as u8, buckets.len());
            let m = Msg::MerkleReq { level, buckets: buckets.into() };
            assert_eq!(req_wire_bytes(n), encoded_len(&m));
        });
    }

    #[test]
    fn repair_wire_bytes_is_the_encoded_length() {
        check(256, |src| {
            let val = src.vec(0..65, Src::u8);
            let ring = src
                .vec(0..9, |s| (s.u64(), s.vec(0..65, Src::u8)))
                .iter()
                .map(|(x, result)| RmwCommit {
                    op: OpId::new(
                        SessionId::new(NodeId((x % 16) as u8), (x >> 8) as u32 & 0x3ff),
                        x >> 34,
                    ),
                    slot: x >> 20,
                    result: Val::from_bytes(result),
                })
                .collect();
            let r = Box::new(Repair {
                key: Key(7),
                val: Val::from_bytes(&val),
                lc: Lc::new(3, NodeId(2)),
                slot: 9,
                ring,
            });
            assert_eq!(repair_wire_bytes(&r), encoded_len(&Msg::RepairVal { r }));
        });
    }

    #[test]
    fn the_fullest_ring_crosses_in_one_frame() {
        // One entry per session of the largest deployment `validate`
        // accepts, every result a store value of the longest length.
        let full = Val::from_bytes(&[0xab; kite_kvs::record::MAX_VAL]);
        let session = |i: usize| SessionId::new(NodeId((i % 16) as u8), (i / 16) as u32);
        let entry = |i: usize| RmwCommit {
            op: OpId::new(session(i), 1 << 40),
            slot: i as u64,
            result: full.clone(),
        };
        let ring: Vec<RmwCommit> = (0..ClusterConfig::MAX_SESSIONS).map(entry).collect();
        let lc = Lc::new(3, NodeId(2));
        let r = Box::new(Repair { key: Key(7), val: full.clone(), lc, slot: 1 << 20, ring });
        let msgs = vec![Msg::RepairVal { r }];
        let mut buf = Vec::new();
        assert_eq!(encode_frames(NodeId(1), 0, &msgs, &mut buf), 1, "one frame");
        let (body, rest) = next_frame(&buf).unwrap().expect("receivers accept its length");
        assert!(rest.is_empty());
        let mut got = Vec::new();
        assert_eq!(decode_frame_body(body, &mut got), Ok((NodeId(1), 0)));
        assert_eq!(format!("{got:?}"), format!("{msgs:?}"));
    }
}
