//! On-disk record framing, file headers and tail-tolerant scanning.
//!
//! # Byte layout: one small frame per applied write
//!
//! Every store apply becomes one self-describing, self-checking frame:
//!
//! * `len`  — payload byte count, `u32` little-endian (4 B);
//! * `crc`  — CRC-32 (IEEE) over the payload bytes, `u32` LE (4 B);
//! * payload:
//!   * `key`  — the key's raw `u64`, LE (8 B);
//!   * `lc`   — the clock packed exactly as the wire codec and the Merkle
//!     mix pack it, `version << 8 | mid`, LE (8 B) — the RMW tag bit rides
//!     along untouched;
//!   * `vlen` — value byte count (1 B);
//!   * value bytes (`vlen` B, at most the store record's 64-byte cap).
//!
//! Budget: `8 + 8 + 1 = 17` payload bytes plus the value, `33` framed
//! bytes for the ubiquitous 8-byte counter values and at worst
//! `8 + 17 + 64 = 89` — small enough that group-commit batches are
//! dominated by value bytes, not framing. Epochs are deliberately absent:
//! a recovered key restarts at epoch 0 against a machine epoch of 0, i.e.
//! in-epoch, exactly like a fresh replica (see the crate docs).
//!
//! # Files
//!
//! Segments (`wal-<seq>.log`) and snapshots (`snap-<seq>.snap`) share one
//! shape: a 16-byte header (8-byte magic + `seq` as `u64` LE) followed by
//! frames. Snapshots additionally end with an **end marker** — a frame
//! header of `len == u32::MAX` whose crc field carries the entry count —
//! so a half-written dump can never masquerade as a complete one.
//!
//! # Torn tails
//!
//! One decoder reads every frame, for replay and for [`scan`] alike. It
//! walks frames until the first violation — short header, absurd length,
//! short payload, CRC mismatch, or an inner/outer length disagreement —
//! and reports everything before it plus a `truncated` flag, reading a
//! file [`READ_BUF`] bytes at a time: replay holds one buffer, never a
//! whole file or a list of its records. A crash mid-`write(2)` thus costs
//! at most the unflushed suffix; nothing before the tear is ever
//! discarded, and recovery never trusts a byte the CRC does not vouch
//! for.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

use kite_common::{Key, Lc, NodeId, Val};

/// Magic prefix of a WAL segment file.
pub const SEG_MAGIC: &[u8; 8] = b"KITEWAL1";
/// Magic prefix of a snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"KITESNP1";
/// File header: magic + segment/snapshot sequence number.
pub const FILE_HEADER_LEN: usize = 16;
/// Frame header: `len` + `crc`.
pub const FRAME_HEADER_LEN: usize = 8;
/// Fixed payload bytes before the value: key + packed clock + vlen.
pub const PAYLOAD_FIXED: usize = 17;
/// Largest framable value: the `vlen` field is one byte and the segment
/// scanner rejects longer payloads by construction, so a value past this
/// cap is *unrecoverable* — [`crate::Wal`] refuses it with a typed error
/// instead of letting it slip through undurable.
pub const MAX_VALUE: usize = 64;
/// Largest legal payload (the store caps values at [`MAX_VALUE`] bytes).
pub const MAX_PAYLOAD: usize = PAYLOAD_FIXED + MAX_VALUE;
/// Largest framed record.
pub const MAX_FRAME: usize = FRAME_HEADER_LEN + MAX_PAYLOAD;

// ---- CRC-32 (IEEE 802.3, reflected) -------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE) of `bytes` — the checksum vouching for every payload.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---- encode / decode -----------------------------------------------------

#[inline]
fn pack_lc(lc: Lc) -> u64 {
    (lc.version() << 8) | lc.mid() as u64
}

#[inline]
fn unpack_lc(raw: u64) -> Lc {
    Lc::new(raw >> 8, NodeId(raw as u8))
}

/// Encode one framed record into `frame` (at least [`MAX_FRAME`] bytes);
/// returns the frame length. Stack-buffer encoding keeps the hot append
/// path allocation-free: callers `extend_from_slice` the result into the
/// recycled staging buffer.
pub fn encode_into(frame: &mut [u8; MAX_FRAME], key: Key, lc: Lc, val: &Val) -> usize {
    let bytes = val.as_bytes();
    debug_assert!(bytes.len() <= MAX_PAYLOAD - PAYLOAD_FIXED, "value exceeds store cap");
    let plen = PAYLOAD_FIXED + bytes.len();
    frame[0..4].copy_from_slice(&(plen as u32).to_le_bytes());
    let p = &mut frame[FRAME_HEADER_LEN..];
    p[0..8].copy_from_slice(&key.0.to_le_bytes());
    p[8..16].copy_from_slice(&pack_lc(lc).to_le_bytes());
    p[16] = bytes.len() as u8;
    p[PAYLOAD_FIXED..plen].copy_from_slice(bytes);
    let crc = crc32(&frame[FRAME_HEADER_LEN..FRAME_HEADER_LEN + plen]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    FRAME_HEADER_LEN + plen
}

/// Append one framed record to `out` (the staging-buffer form of
/// [`encode_into`]).
pub fn append_record(out: &mut Vec<u8>, key: Key, lc: Lc, val: &Val) -> usize {
    let mut frame = [0u8; MAX_FRAME];
    let n = encode_into(&mut frame, key, lc, val);
    out.extend_from_slice(&frame[..n]);
    n
}

/// Append a snapshot end marker: `len == u32::MAX`, crc field = entry
/// count.
pub fn append_end_marker(out: &mut Vec<u8>, entries: u32) {
    out.extend_from_slice(&u32::MAX.to_le_bytes());
    out.extend_from_slice(&entries.to_le_bytes());
}

/// Build a 16-byte file header.
pub fn file_header(magic: &[u8; 8], seq: u64) -> [u8; FILE_HEADER_LEN] {
    let mut h = [0u8; FILE_HEADER_LEN];
    h[0..8].copy_from_slice(magic);
    h[8..16].copy_from_slice(&seq.to_le_bytes());
    h
}

// ---- scanning ------------------------------------------------------------

/// Bytes a file is read in: replay holds this buffer and one record,
/// never a whole file.
pub const READ_BUF: usize = 1 << 16;

/// One decoded record plus the byte offset its frame starts at — offsets
/// are what the fault-injection tests aim their corruption at.
#[derive(Clone, Debug)]
pub struct ScannedRecord {
    /// Byte offset of the frame's `len` field within the file.
    pub offset: u64,
    /// Decoded key.
    pub key: Key,
    /// Decoded clock.
    pub lc: Lc,
    /// Decoded value.
    pub val: Val,
}

/// Result of scanning one segment or snapshot file.
#[derive(Debug)]
pub struct Scan {
    /// Sequence number from the file header.
    pub seq: u64,
    /// Every frame before the first violation, in file order.
    pub records: Vec<ScannedRecord>,
    /// A tail violation was hit (torn write, corrupt CRC, garbage).
    pub truncated: bool,
    /// A valid end marker terminated the file (snapshots only; segments
    /// never carry one).
    pub complete: bool,
}

/// What [`stream`] found in one file: a [`Scan`] without the records,
/// which went to the caller one at a time.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tally {
    /// Sequence number from the file header.
    pub(crate) seq: u64,
    /// Frames handed over, all of them before the first violation.
    pub(crate) records: u64,
    /// A tail violation was hit (torn write, corrupt CRC, garbage).
    pub(crate) truncated: bool,
    /// A valid end marker terminated the file.
    pub(crate) complete: bool,
}

/// What [`decode`] found at the start of its input.
enum Decoded<'a> {
    /// One whole, CRC-checked record, `len` framed bytes long.
    Record { key: Key, lc: Lc, value: &'a [u8], len: usize },
    /// A snapshot end marker and the entry count it carries.
    End(u32),
    /// The input ends inside a frame: a tear if nothing follows it.
    Short,
    /// An absurd length, a CRC mismatch or an inner/outer length
    /// disagreement: the tail from here on is garbage.
    Bad,
}

/// Read a little-endian `u32` at `off`, or `None` past the end.
// kite-lint: total-decode
fn read_u32(data: &[u8], off: usize) -> Option<u32> {
    let b = data.get(off..off.checked_add(4)?)?;
    Some(u32::from_le_bytes(<[u8; 4]>::try_from(b).ok()?))
}

/// Read a little-endian `u64` at `off`, or `None` past the end.
// kite-lint: total-decode
fn read_u64(data: &[u8], off: usize) -> Option<u64> {
    let b = data.get(off..off.checked_add(8)?)?;
    Some(u64::from_le_bytes(<[u8; 8]>::try_from(b).ok()?))
}

/// Decode the frame `data` starts with — the one frame decoder: replay,
/// [`scan`] and [`scan_file`] all read through it (by way of [`stream`]).
///
/// Total: arbitrary on-disk garbage (the fault-injection tests feed
/// exactly that) yields [`Decoded::Short`] or [`Decoded::Bad`], never a
/// panic.
// kite-lint: total-decode
fn decode(data: &[u8]) -> Decoded<'_> {
    let (Some(len), Some(crc)) = (read_u32(data, 0), read_u32(data, 4)) else {
        return Decoded::Short; // torn mid-header
    };
    if len == u32::MAX {
        // End marker: the crc field carries the entry count.
        return Decoded::End(crc);
    }
    let len = len as usize;
    if !(PAYLOAD_FIXED..=MAX_PAYLOAD).contains(&len) {
        return Decoded::Bad;
    }
    let Some(payload) = data.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + len) else {
        return Decoded::Short; // torn mid-payload
    };
    // The bound check above guarantees `len >= PAYLOAD_FIXED`, so the
    // fixed fields below always decode once this `get` succeeds — the
    // `else` arm is unreachable belt-and-braces, not a live path.
    let (Some(key), Some(lc), Some(&vlen), Some(value)) =
        (read_u64(payload, 0), read_u64(payload, 8), payload.get(16), payload.get(PAYLOAD_FIXED..))
    else {
        return Decoded::Bad;
    };
    if crc32(payload) != crc || PAYLOAD_FIXED + vlen as usize != len {
        return Decoded::Bad;
    }
    Decoded::Record { key: Key(key), lc: unpack_lc(lc), value, len: FRAME_HEADER_LEN + len }
}

/// Fill `buf` from `src` until it is full or `src` is exhausted; returns
/// the bytes read.
fn read_full(src: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while let Some(rest) = buf.get_mut(filled..).filter(|r| !r.is_empty()) {
        match src.read(rest) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Stream a WAL segment or snapshot from `src` through [`decode`], [`READ_BUF`]
/// bytes at a time, handing each record to `each` as `(offset, key, lc,
/// value)` until the first violation. Returns `None` when the header is
/// short or the magic is wrong — the file is not ours at all, as opposed
/// to ours-but-torn.
// kite-lint: total-decode
pub(crate) fn stream(
    mut src: impl Read,
    magic: &[u8; 8],
    mut each: impl FnMut(u64, Key, Lc, &[u8]),
) -> io::Result<Option<Tally>> {
    let mut buf = vec![0u8; READ_BUF];
    let mut filled = read_full(&mut src, &mut buf)?;
    if buf.get(0..8) != Some(&magic[..]) || filled < FILE_HEADER_LEN {
        return Ok(None);
    }
    let Some(seq) = read_u64(&buf, 8) else {
        return Ok(None);
    };
    let mut tally = Tally { seq, records: 0, truncated: false, complete: false };
    // `buf[pos..filled]` is unread; `base` is the file offset of `buf[0]`.
    let (mut pos, mut base) = (FILE_HEADER_LEN, 0u64);
    let mut eof = filled < buf.len();
    loop {
        let unread = buf.get(pos..filled).unwrap_or_default();
        match decode(unread) {
            Decoded::Record { key, lc, value, len } => {
                each(base + pos as u64, key, lc, value);
                tally.records += 1;
                pos += len;
            }
            Decoded::End(count) => {
                tally.complete = u64::from(count) == tally.records;
                tally.truncated = !tally.complete;
                break;
            }
            Decoded::Short if unread.is_empty() && eof => break,
            Decoded::Short if !eof => {
                // A frame straddles the buffer's end: keep its head, read on.
                buf.copy_within(pos..filled, 0);
                base += pos as u64;
                filled -= pos;
                pos = 0;
                filled += read_full(&mut src, buf.get_mut(filled..).unwrap_or_default())?;
                eof = filled < buf.len();
            }
            Decoded::Short | Decoded::Bad => {
                tally.truncated = true;
                break;
            }
        }
    }
    Ok(Some(tally))
}

/// Decode `data` as a WAL segment or snapshot, through the decoder replay
/// streams through, and keep every record: the whole-file view the
/// fault-injection tests aim their corruption with. Returns `None` when
/// the header is short or the magic is wrong — the file is not ours at
/// all, as opposed to ours-but-torn.
pub fn scan(data: &[u8], magic: &[u8; 8]) -> Option<Scan> {
    collect(data, magic).ok()?
}

/// Read and [`scan`] a file on disk.
pub fn scan_file(path: &Path, magic: &[u8; 8]) -> io::Result<Option<Scan>> {
    collect(File::open(path)?, magic)
}

fn collect(src: impl Read, magic: &[u8; 8]) -> io::Result<Option<Scan>> {
    let mut records = Vec::new();
    let tally = stream(src, magic, |offset, key, lc, value| {
        records.push(ScannedRecord { offset, key, lc, val: Val::from_bytes(value) })
    })?;
    Ok(tally.map(|t| Scan { seq: t.seq, records, truncated: t.truncated, complete: t.complete }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_with_offsets() {
        let mut data = file_header(SEG_MAGIC, 7).to_vec();
        let vals =
            [(Key(1), Lc::new(3, NodeId(2)), Val::from_u64(10)), (Key(2), Lc::ZERO, Val::EMPTY)];
        for (k, lc, v) in &vals {
            append_record(&mut data, *k, *lc, v);
        }
        let scan = scan(&data, SEG_MAGIC).unwrap();
        assert_eq!(scan.seq, 7);
        assert!(!scan.truncated && !scan.complete);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].offset as usize, FILE_HEADER_LEN);
        assert_eq!(scan.records[0].key, Key(1));
        assert_eq!(scan.records[0].lc, Lc::new(3, NodeId(2)));
        assert_eq!(scan.records[0].val.as_u64(), 10);
        assert_eq!(scan.records[1].val, Val::EMPTY);
    }

    #[test]
    fn rmw_tagged_clocks_survive_the_round_trip() {
        let mut data = file_header(SEG_MAGIC, 1).to_vec();
        let lc = Lc::new(5, NodeId(1)).succ_rmw(NodeId(2));
        append_record(&mut data, Key(9), lc, &Val::from_u64(1));
        let scan = scan(&data, SEG_MAGIC).unwrap();
        assert_eq!(scan.records[0].lc, lc);
        assert!(scan.records[0].lc.is_rmw());
        assert_eq!(scan.records[0].lc.owner(), NodeId(2));
    }

    #[test]
    fn torn_and_corrupt_tails_truncate_without_losing_the_prefix() {
        let mut base = file_header(SEG_MAGIC, 1).to_vec();
        for i in 0..5u64 {
            append_record(&mut base, Key(i), Lc::new(i + 1, NodeId(0)), &Val::from_u64(i));
        }
        // Torn mid-record: cut the last frame short.
        let torn = &base[..base.len() - 3];
        let s = scan(torn, SEG_MAGIC).unwrap();
        assert!(s.truncated);
        assert_eq!(s.records.len(), 4);
        // Bit-flip inside a CRC'd payload: that record and everything
        // after it is discarded.
        let mut flipped = base.clone();
        let target = {
            let s = scan(&base, SEG_MAGIC).unwrap();
            s.records[2].offset as usize + FRAME_HEADER_LEN + 3
        };
        flipped[target] ^= 0x40;
        let s = scan(&flipped, SEG_MAGIC).unwrap();
        assert!(s.truncated);
        assert_eq!(s.records.len(), 2);
        // Garbage length: same story at the garbage point.
        let mut garbage = base.clone();
        garbage.extend_from_slice(&[0xEE; 16]);
        let s = scan(&garbage, SEG_MAGIC).unwrap();
        assert!(s.truncated);
        assert_eq!(s.records.len(), 5, "prefix before the garbage survives");
        // Wrong magic: not our file at all.
        assert!(scan(&base, SNAP_MAGIC).is_none());
        assert!(scan(b"short", SEG_MAGIC).is_none());
    }

    #[test]
    fn end_marker_distinguishes_complete_snapshots() {
        let mut data = file_header(SNAP_MAGIC, 3).to_vec();
        append_record(&mut data, Key(1), Lc::new(1, NodeId(0)), &Val::from_u64(1));
        let unfinished = scan(&data, SNAP_MAGIC).unwrap();
        assert!(!unfinished.complete, "no marker: the dump never finished");
        append_end_marker(&mut data, 1);
        let s = scan(&data, SNAP_MAGIC).unwrap();
        assert!(s.complete && !s.truncated);
        assert_eq!(s.records.len(), 1);
        // A marker whose count disagrees is a tear, not a completion.
        let mut bad = file_header(SNAP_MAGIC, 3).to_vec();
        append_record(&mut bad, Key(1), Lc::new(1, NodeId(0)), &Val::from_u64(1));
        append_end_marker(&mut bad, 9);
        let s = scan(&bad, SNAP_MAGIC).unwrap();
        assert!(!s.complete && s.truncated);
    }
}
