//! The data-structure operation abstraction: one state machine per
//! operation, drivable by a blocking session or by the simulator.

use kite::api::{Op, OpOutput};
use kite_common::{Result, Val};

use crate::ptr::Ptr;

/// What a finished data-structure operation produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DsOutcome {
    /// Push/enqueue/insert finished. `retries` counts CAS conflicts.
    Pushed {
        /// Conflict retries performed.
        retries: u32,
    },
    /// Pop/dequeue finished with the removed node's payload fields
    /// (`None` = structure was empty). `node` is the reclaimed node (NULL
    /// when empty) — the caller returns it to its arena.
    Popped {
        /// The popped object's payload; `None` means the structure was
        /// empty (a §8.3 correctness violation in the pair workload).
        fields: Option<Vec<Val>>,
        /// The detached node (for arena reclamation).
        node: Ptr,
        /// Conflict retries performed.
        retries: u32,
    },
    /// List insert: false if the key already existed.
    Inserted {
        /// Whether the item was inserted (false: duplicate).
        ok: bool,
        /// Conflict retries performed.
        retries: u32,
    },
    /// List remove: false if the key wasn't present.
    Removed {
        /// Whether the item was found and removed.
        ok: bool,
        /// Conflict retries performed.
        retries: u32,
    },
}

impl DsOutcome {
    /// Conflict retries the operation performed.
    pub fn retries(&self) -> u32 {
        match self {
            DsOutcome::Pushed { retries }
            | DsOutcome::Popped { retries, .. }
            | DsOutcome::Inserted { retries, .. }
            | DsOutcome::Removed { retries, .. } => *retries,
        }
    }
}

/// One transition of a data-structure operation.
pub enum Step {
    /// Execute this KVS operation and feed the output back in.
    Exec(Op),
    /// The operation is complete.
    Done(DsOutcome),
}

/// A data-structure operation as an explicit state machine over the Kite
/// API. `step(None)` starts it; subsequent calls pass the previous KVS
/// operation's output. Implementations must be deterministic functions of
/// the outputs they see.
pub trait DsMachine: Send {
    /// Advance the machine: `last` is the completed output of the
    /// previously requested operation (`None` on the first step).
    fn step(&mut self, last: Option<&OpOutput>) -> Step;
}

/// Drive a machine to completion over a blocking client: `exec` submits one
/// operation and waits for its output (a session's synchronous call).
pub fn run_blocking(
    m: &mut dyn DsMachine,
    mut exec: impl FnMut(Op) -> Result<OpOutput>,
) -> Result<DsOutcome> {
    let mut last: Option<OpOutput> = None;
    loop {
        match m.step(last.as_ref()) {
            Step::Done(outcome) => return Ok(outcome),
            Step::Exec(op) => last = Some(exec(op)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_common::Key;

    /// A two-step machine used to validate the driving contract.
    struct TwoStep {
        state: u8,
    }

    impl DsMachine for TwoStep {
        fn step(&mut self, last: Option<&OpOutput>) -> Step {
            match self.state {
                0 => {
                    assert!(last.is_none(), "first step sees no output");
                    self.state = 1;
                    Step::Exec(Op::Read { key: Key(1) })
                }
                1 => {
                    assert!(matches!(last, Some(OpOutput::Value(_))));
                    self.state = 2;
                    Step::Done(DsOutcome::Pushed { retries: 0 })
                }
                _ => unreachable!("stepped after Done"),
            }
        }
    }

    #[test]
    fn machine_contract() {
        let mut m = TwoStep { state: 0 };
        let Step::Exec(op) = m.step(None) else { panic!("expected exec") };
        assert!(matches!(op, Op::Read { .. }));
        let out = OpOutput::Value(Val::EMPTY);
        let Step::Done(o) = m.step(Some(&out)) else { panic!("expected done") };
        assert_eq!(o, DsOutcome::Pushed { retries: 0 });
    }

    #[test]
    fn outcome_retetries_accessor() {
        assert_eq!(DsOutcome::Popped { fields: None, node: Ptr::NULL, retries: 3 }.retries(), 3);
        assert_eq!(DsOutcome::Inserted { ok: true, retries: 0 }.retries(), 0);
    }
}
