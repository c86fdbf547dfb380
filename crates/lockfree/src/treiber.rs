//! The Treiber stack (TS) over the Kite API (§8.3).
//!
//! Port shape, per the DRF contract:
//! * node payload fields: relaxed writes (push) / relaxed reads (pop);
//! * `top`: acquire reads; weak-CAS updates (ABA-counted pointers);
//! * a *failed* weak CAS completes locally; its observed value seeds the
//!   retry — RC-safe because the eventually *successful* CAS is a full
//!   synchronization operation (acquire+release), closing the hb chain to
//!   the previous publisher.

use kite::api::{Op, OpOutput};
use kite_common::{Key, Val};

use crate::machine::{DsMachine, DsOutcome, Step};
use crate::ptr::{NodeArena, Ptr};

/// A stack descriptor: the key of its `top` pointer cell and the payload
/// field count of its nodes (4 or 32 in the paper's workloads).
#[derive(Clone, Copy, Debug)]
pub struct TreiberStack {
    /// Key of the top-of-stack cell.
    pub top: Key,
    /// Payload fields per node.
    pub fields: usize,
}

// ---------------------------------------------------------------- push --

enum PushState {
    /// Writing payload field `i`.
    WriteField(usize),
    /// Acquire-read the top pointer.
    ReadTop,
    /// Write our node's next pointer, then CAS.
    WriteNext,
    Cas { expect: Ptr },
    Done,
}

/// `push(stack, node, payload)` — the node must be freshly allocated from
/// the caller's arena; payload length must equal `stack.fields`.
pub struct TsPush {
    stack: TreiberStack,
    node: Ptr,
    payload: Vec<Val>,
    state: PushState,
    retries: u32,
}

impl TsPush {
    /// A push of `node` (carrying `payload`) onto `stack`.
    pub fn new(stack: TreiberStack, node: Ptr, payload: Vec<Val>) -> Self {
        assert_eq!(payload.len(), stack.fields);
        TsPush { stack, node, payload, state: PushState::WriteField(0), retries: 0 }
    }
}

impl DsMachine for TsPush {
    fn step(&mut self, last: Option<&OpOutput>) -> Step {
        loop {
            match self.state {
                PushState::WriteField(i) => {
                    if i < self.stack.fields {
                        self.state = PushState::WriteField(i + 1);
                        return Step::Exec(Op::Write {
                            key: NodeArena::field_key(self.node, i),
                            val: self.payload[i].clone(),
                        });
                    }
                    self.state = PushState::ReadTop;
                }
                PushState::ReadTop => {
                    self.state = PushState::WriteNext;
                    return Step::Exec(Op::Acquire { key: self.stack.top });
                }
                PushState::WriteNext => {
                    // arrive here right after ReadTop's completion
                    let Some(OpOutput::Value(v)) = last else { unreachable!("acquire output") };
                    let t = Ptr::decode(v);
                    self.state = PushState::Cas { expect: t };
                    return Step::Exec(Op::Write {
                        key: NodeArena::next_key(self.node),
                        val: t.encode(),
                    });
                }
                PushState::Cas { expect } => {
                    // after the next-write completes, issue the CAS; after the
                    // CAS completes, decide.
                    match last {
                        Some(OpOutput::Done) => {
                            self.state = PushState::Cas { expect };
                            return Step::Exec(Op::CasWeak {
                                key: self.stack.top,
                                expect: expect.encode(),
                                new: self.node.encode(),
                            });
                        }
                        Some(OpOutput::Cas { ok: true, .. }) => {
                            self.state = PushState::Done;
                            return Step::Done(DsOutcome::Pushed { retries: self.retries });
                        }
                        Some(OpOutput::Cas { ok: false, observed }) => {
                            // Conflict: retry against the observed top.
                            self.retries += 1;
                            let t = Ptr::decode(observed);
                            self.state = PushState::Cas { expect: t };
                            return Step::Exec(Op::Write {
                                key: NodeArena::next_key(self.node),
                                val: t.encode(),
                            });
                        }
                        _ => unreachable!("unexpected output in push CAS state"),
                    }
                }
                PushState::Done => unreachable!("stepped a finished push"),
            }
        }
    }
}

// ----------------------------------------------------------------- pop --

enum PopState {
    ReadTop,
    /// Got top; reading its next pointer.
    ReadNext,
    /// CAS `top: t → next`.
    Cas { t: Ptr, next: Ptr },
    /// Reading payload field `i` of the popped node.
    ReadField { t: Ptr, i: usize },
    Done,
}

/// `pop(stack)`.
pub struct TsPop {
    stack: TreiberStack,
    state: PopState,
    fields: Vec<Val>,
    retries: u32,
}

impl TsPop {
    /// A pop from `stack`.
    pub fn new(stack: TreiberStack) -> Self {
        TsPop { stack, state: PopState::ReadTop, fields: Vec::new(), retries: 0 }
    }
}

impl DsMachine for TsPop {
    fn step(&mut self, last: Option<&OpOutput>) -> Step {
        loop {
            match self.state {
                PopState::ReadTop => {
                    self.state = PopState::ReadNext;
                    return Step::Exec(Op::Acquire { key: self.stack.top });
                }
                PopState::ReadNext => {
                    let Some(OpOutput::Value(v)) = last else { unreachable!("acquire output") };
                    let t = Ptr::decode(v);
                    if t.is_null() {
                        self.state = PopState::Done;
                        return Step::Done(DsOutcome::Popped {
                            fields: None,
                            node: Ptr::NULL,
                            retries: self.retries,
                        });
                    }
                    self.state = PopState::Cas { t, next: Ptr::NULL };
                    return Step::Exec(Op::Read { key: NodeArena::next_key(t) });
                }
                PopState::Cas { t, next } => match last {
                    Some(OpOutput::Value(v)) => {
                        let next = Ptr::decode(v);
                        self.state = PopState::Cas { t, next };
                        return Step::Exec(Op::CasWeak {
                            key: self.stack.top,
                            expect: t.encode(),
                            new: next.encode(),
                        });
                    }
                    Some(OpOutput::Cas { ok: true, .. }) => {
                        self.state = PopState::ReadField { t, i: 0 };
                    }
                    Some(OpOutput::Cas { ok: false, observed }) => {
                        self.retries += 1;
                        let t = Ptr::decode(observed);
                        if t.is_null() {
                            self.state = PopState::Done;
                            return Step::Done(DsOutcome::Popped {
                                fields: None,
                                node: Ptr::NULL,
                                retries: self.retries,
                            });
                        }
                        // New top: re-read its next. The ABA counter in the
                        // encoding makes a stale (t, next) pair un-CAS-able.
                        self.state = PopState::Cas { t, next };
                        return Step::Exec(Op::Read { key: NodeArena::next_key(t) });
                    }
                    _ => unreachable!("unexpected output in pop CAS state"),
                },
                PopState::ReadField { t, i } => {
                    if let Some(OpOutput::Value(v)) = last {
                        if i > 0 {
                            self.fields.push(v.clone());
                        }
                    }
                    if i < self.stack.fields {
                        self.state = PopState::ReadField { t, i: i + 1 };
                        return Step::Exec(Op::Read { key: NodeArena::field_key(t, i) });
                    }
                    self.state = PopState::Done;
                    return Step::Done(DsOutcome::Popped {
                        fields: Some(std::mem::take(&mut self.fields)),
                        node: t,
                        retries: self.retries,
                    });
                }
                PopState::Done => unreachable!("stepped a finished pop"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Pure state-machine tests: feed outputs by hand, assert issued ops.

    fn stack() -> TreiberStack {
        TreiberStack { top: Key(1), fields: 2 }
    }

    #[test]
    fn push_happy_path_sequence() {
        let mut arena = NodeArena::new(100, 8, 2);
        let node = arena.alloc();
        let mut m = TsPush::new(stack(), node, vec![Val::from_u64(7), Val::from_u64(8)]);
        // two field writes
        for i in 0..2 {
            let Step::Exec(Op::Write { key, .. }) = m.step(if i == 0 { None } else { Some(&OpOutput::Done) })
            else {
                panic!("expected field write")
            };
            assert_eq!(key, NodeArena::field_key(node, i));
        }
        // acquire top
        let Step::Exec(Op::Acquire { key }) = m.step(Some(&OpOutput::Done)) else {
            panic!("expected acquire")
        };
        assert_eq!(key, Key(1));
        // top is null → write node.next = null
        let Step::Exec(Op::Write { key, val }) = m.step(Some(&OpOutput::Value(Ptr::NULL.encode())))
        else {
            panic!("expected next write")
        };
        assert_eq!(key, NodeArena::next_key(node));
        assert_eq!(Ptr::decode(&val), Ptr::NULL);
        // CAS top: null → node
        let Step::Exec(Op::CasWeak { key, expect, new }) = m.step(Some(&OpOutput::Done)) else {
            panic!("expected CAS")
        };
        assert_eq!(key, Key(1));
        assert_eq!(Ptr::decode(&expect), Ptr::NULL);
        assert_eq!(Ptr::decode(&new), node);
        // success
        let Step::Done(DsOutcome::Pushed { retries }) =
            m.step(Some(&OpOutput::Cas { ok: true, observed: Ptr::NULL.encode() }))
        else {
            panic!("expected done")
        };
        assert_eq!(retries, 0);
    }

    #[test]
    fn push_retries_with_observed_top() {
        let mut arena = NodeArena::new(100, 8, 2);
        let node = arena.alloc();
        let other = arena.alloc();
        let mut m = TsPush::new(stack(), node, vec![Val::EMPTY, Val::EMPTY]);
        m.step(None); // field 0
        m.step(Some(&OpOutput::Done)); // field 1
        m.step(Some(&OpOutput::Done)); // acquire
        m.step(Some(&OpOutput::Value(Ptr::NULL.encode()))); // next write
        m.step(Some(&OpOutput::Done)); // cas issued
        // CAS fails: someone pushed `other`
        let Step::Exec(Op::Write { val, .. }) =
            m.step(Some(&OpOutput::Cas { ok: false, observed: other.encode() }))
        else {
            panic!("expected next rewrite")
        };
        assert_eq!(Ptr::decode(&val), other, "retry links behind the observed top");
        let Step::Exec(Op::CasWeak { expect, .. }) = m.step(Some(&OpOutput::Done)) else {
            panic!("expected CAS retry")
        };
        assert_eq!(Ptr::decode(&expect), other);
        let Step::Done(DsOutcome::Pushed { retries }) =
            m.step(Some(&OpOutput::Cas { ok: true, observed: other.encode() }))
        else {
            panic!("expected done")
        };
        assert_eq!(retries, 1);
    }

    #[test]
    fn pop_of_empty_stack() {
        let mut m = TsPop::new(stack());
        let Step::Exec(Op::Acquire { .. }) = m.step(None) else { panic!() };
        let Step::Done(DsOutcome::Popped { fields, node, .. }) =
            m.step(Some(&OpOutput::Value(Ptr::NULL.encode())))
        else {
            panic!("expected empty pop")
        };
        assert!(fields.is_none());
        assert!(node.is_null());
    }

    #[test]
    fn pop_happy_path_reads_fields_and_returns_node() {
        let mut arena = NodeArena::new(100, 8, 2);
        let node = arena.alloc();
        let mut m = TsPop::new(stack());
        m.step(None); // acquire issued
        // top = node
        let Step::Exec(Op::Read { key }) = m.step(Some(&OpOutput::Value(node.encode()))) else {
            panic!("expected next read")
        };
        assert_eq!(key, NodeArena::next_key(node));
        // node.next = null → CAS top: node → null
        let Step::Exec(Op::CasWeak { expect, new, .. }) =
            m.step(Some(&OpOutput::Value(Ptr::NULL.encode())))
        else {
            panic!("expected CAS")
        };
        assert_eq!(Ptr::decode(&expect), node);
        assert_eq!(Ptr::decode(&new), Ptr::NULL);
        // success → field reads
        let Step::Exec(Op::Read { key }) =
            m.step(Some(&OpOutput::Cas { ok: true, observed: node.encode() }))
        else {
            panic!("expected field read")
        };
        assert_eq!(key, NodeArena::field_key(node, 0));
        let Step::Exec(Op::Read { key }) = m.step(Some(&OpOutput::Value(Val::from_u64(7)))) else {
            panic!("expected field read 1")
        };
        assert_eq!(key, NodeArena::field_key(node, 1));
        let Step::Done(DsOutcome::Popped { fields, node: n, retries }) =
            m.step(Some(&OpOutput::Value(Val::from_u64(8))))
        else {
            panic!("expected done")
        };
        let fields = fields.unwrap();
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].as_u64(), 7);
        assert_eq!(fields[1].as_u64(), 8);
        assert_eq!(n, node);
        assert_eq!(retries, 0);
    }
}
