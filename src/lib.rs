//! # kite-repro
//!
//! Workspace root for the Kite reproduction (PPoPP 2020). The library
//! portion hosts glue used by the cross-crate integration tests in
//! `tests/` and the runnable examples in `examples/`; the interesting code
//! lives in the `crates/` members:
//!
//! * [`kite`] — the system itself (protocols + RC barrier machinery);
//! * [`kite_zab`] / [`kite_derecho`] — the baselines;
//! * [`kite_lockfree`] — the §8.3 data structures;
//! * [`kite_workloads`] / `kite-bench` — evaluation harnesses;
//! * [`kite_verify`] — consistency checkers.

#![warn(missing_docs)]

pub mod testutil {
    //! Bridges between the Kite runtime and the `kite-verify` checkers, and
    //! the fault suites' one runner ([`swarm`]).

    use std::sync::Arc;

    use kite::api::{Completion, CompletionHook, Op, OpOutput};
    use kite_verify::{History, OpKind, OpRecord};

    /// Convert a completed operation into a checker record. Histories fed
    /// to the checkers must use unique written values per key (the tests'
    /// responsibility).
    pub fn to_record(c: &Completion) -> OpRecord {
        let kind = match (&c.op, &c.output) {
            (Op::Read { .. }, OpOutput::Value(v)) => OpKind::Read { v: v.as_u64() },
            (Op::Acquire { .. }, OpOutput::Value(v)) => OpKind::Acquire { v: v.as_u64() },
            (Op::Write { val, .. }, _) => OpKind::Write { v: val.as_u64() },
            (Op::Release { val, .. }, _) => OpKind::Release { v: val.as_u64() },
            (Op::Faa { delta, .. }, OpOutput::Faa(old)) => {
                OpKind::Rmw { observed: *old, wrote: old.wrapping_add(*delta) }
            }
            (Op::CasWeak { new, .. } | Op::CasStrong { new, .. }, OpOutput::Cas { ok, observed }) => {
                let obs = observed.as_u64();
                OpKind::Rmw { observed: obs, wrote: if *ok { new.as_u64() } else { obs } }
            }
            (op, out) => unreachable!("unexpected op/output pairing: {op:?} / {out:?}"),
        };
        OpRecord {
            session: c.op_id.session,
            session_seq: c.op_id.seq,
            key: c.op.key(),
            kind,
            invoke: c.invoked_at,
            complete: c.completed_at,
        }
    }

    /// The values the history's RMWs observed, sorted. FAAs by one on a key
    /// that starts at 0 ran exactly once each iff these are `0..n` — one
    /// command per Paxos slot, none lost and none doubled.
    pub fn rmw_bases(history: &History) -> Vec<u64> {
        let mut bases: Vec<u64> = history
            .sorted()
            .iter()
            .filter_map(|r| match r.kind {
                OpKind::Rmw { observed, .. } => Some(observed),
                _ => None,
            })
            .collect();
        bases.sort_unstable();
        bases
    }

    /// A completion hook that appends every completion to a shared history.
    pub fn recording_hook(history: Arc<History>) -> CompletionHook {
        Arc::new(move |c: &Completion| history.record(to_record(c)))
    }

    /// Op `seq` of a deterministic mixed workload touching every
    /// reply-producing path: relaxed writes (ES acks), releases
    /// (value-round acks), acquires (write-back acks) and FAAs (commit acks)
    /// — shared by the fault suites so the value-encoding subtleties live
    /// in one place.
    ///
    /// Written values are unique per key and **never 0**: the checkers
    /// read 0 as "the initial value", so a write of literal 0 would make a
    /// legitimate read of it indistinguishable from a stale read of the
    /// pre-write state (`base` and `seq + 1` are both non-zero).
    pub fn mixed_op(sid: kite_common::SessionId, payload_keys: u64, seq: u64) -> Op {
        use kite_common::{Key, Val};
        let base = (sid.node.idx() as u64 + 1) << 8 | sid.slot as u64;
        let key = Key(10 + (seq + base) % payload_keys);
        match seq % 6 {
            0 | 1 => Op::Write { key, val: Val::from_u64(base << 16 | (seq + 1)) },
            2 => Op::Release { key: Key(3), val: Val::from_u64(base << 16 | (seq + 1)) },
            3 => Op::Acquire { key: Key(3) },
            4 => Op::Faa { key: Key(5), delta: 1 },
            _ => Op::Read { key },
        }
    }

    /// Session `s`'s first `ops` ops of [`mixed_op`] over 5 payload keys, on a
    /// cluster of 2 sessions per node: a script for a fault case
    /// ([`swarm::Case`]).
    pub fn mixed_script(s: usize, ops: u64) -> Vec<Op> {
        let sid = kite_common::SessionId::new(kite_common::NodeId(s as u8 / 2), s as u32 % 2);
        (0..ops).map(|seq| mixed_op(sid, 5, seq)).collect()
    }

    /// A session that runs the first `ops` ops of [`mixed_op`].
    pub fn mixed_fault_driver(
        sid: kite_common::SessionId,
        payload_keys: u64,
        ops: u64,
    ) -> kite::SessionDriver {
        kite::SessionDriver::Script(Box::new(move |seq| {
            (seq < ops).then(|| mixed_op(sid, payload_keys, seq))
        }))
    }

    pub mod swarm;
}

#[cfg(test)]
mod tests {
    use super::testutil::to_record;
    use kite::api::{Completion, Op, OpOutput};
    use kite_common::{Key, NodeId, OpId, SessionId, Val};
    use kite_verify::OpKind;

    fn completion(op: Op, output: OpOutput) -> Completion {
        Completion {
            op_id: OpId::new(SessionId::new(NodeId(0), 0), 3),
            op,
            output,
            invoked_at: 10,
            completed_at: 20,
        }
    }

    #[test]
    fn record_conversion_covers_op_kinds() {
        let r = to_record(&completion(
            Op::Read { key: Key(1) },
            OpOutput::Value(Val::from_u64(5)),
        ));
        assert_eq!(r.kind, OpKind::Read { v: 5 });
        assert_eq!(r.session_seq, 3);

        let r = to_record(&completion(
            Op::Release { key: Key(1), val: Val::from_u64(9) },
            OpOutput::Done,
        ));
        assert_eq!(r.kind, OpKind::Release { v: 9 });

        let r = to_record(&completion(Op::Faa { key: Key(1), delta: 1 }, OpOutput::Faa(7)));
        assert_eq!(r.kind, OpKind::Rmw { observed: 7, wrote: 8 });

        let r = to_record(&completion(Op::Faa { key: Key(1), delta: 5 }, OpOutput::Faa(7)));
        assert_eq!(r.kind, OpKind::Rmw { observed: 7, wrote: 12 }, "an FAA writes old + delta");

        let r = to_record(&completion(
            Op::CasStrong { key: Key(1), expect: Val::from_u64(1), new: Val::from_u64(2) },
            OpOutput::Cas { ok: false, observed: Val::from_u64(4) },
        ));
        assert_eq!(r.kind, OpKind::Rmw { observed: 4, wrote: 4 }, "failed CAS reads atomically");
    }
}
