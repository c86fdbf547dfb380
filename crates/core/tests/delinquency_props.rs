//! Model-based property test of the delinquency bit state machine
//! (§4.2.1, Figure 3) — the safety side of Lemma 5.7 under arbitrary
//! interleavings of slow-releases, acquire probes, and resets.
//!
//! The oracle tracks, per acquire tag, the *mark epoch* at which its probe
//! observed the bit. The invariant Kite's correctness rests on: a reset
//! may only clear the bit if **no slow-release marked it since the probe
//! that created the tag** — otherwise an acquire racing with a new
//! delinquency event could wipe evidence the next acquire needs (§5.5).
//! Tag replacement and the defensive tag cap may *refuse* extra resets
//! (that is safe, only costing a redundant slow path), so the oracle
//! checks soundness of successful resets, not completeness.

use std::collections::HashMap;

use kite::delinquency::DelinquencyTable;
use kite_common::{NodeId, NodeSet, OpId, SessionId};
use kite_verify::check::{check, Src};

/// One scripted action against the table (single bit: machine 0).
#[derive(Clone, Debug)]
enum Action {
    /// A slow-release marks the machine delinquent.
    Mark,
    /// An acquire probe from session `s` (sequence numbers assigned in
    /// script order, as real sessions do).
    Probe { s: u8 },
    /// A reset from session `s`, using the tag of its most recent probe.
    Reset { s: u8 },
    /// A reset replaying a stale (older) tag of session `s`.
    StaleReset { s: u8 },
}

fn actions(src: &mut Src) -> Vec<Action> {
    src.vec(1..200, |s| match s.pick(&[2, 4, 3, 1]) {
        0 => Action::Mark,
        1 => Action::Probe { s: s.below(4) as u8 },
        2 => Action::Reset { s: s.below(4) as u8 },
        _ => Action::StaleReset { s: s.below(4) as u8 },
    })
}

#[test]
fn resets_never_erase_newer_delinquency() {
    check(256, |src| {
        let script = actions(src);
        let machine = NodeId(0);
        let table = DelinquencyTable::new(1);
        let dm: NodeSet = [machine].into_iter().collect();

        // Oracle state.
        let mut mark_epoch = 0u64;
        let mut seqs = [0u64; 4]; // per-session sequence counter
        let mut last_tag: [Option<OpId>; 4] = [None; 4];
        let mut first_tag: [Option<OpId>; 4] = [None; 4];
        let mut tag_epoch: HashMap<OpId, u64> = HashMap::new();
        let mut marked = false; // oracle's view of "Set or Transient"

        for a in script {
            match a {
                Action::Mark => {
                    table.mark_delinquent(dm);
                    mark_epoch += 1;
                    marked = true;
                    assert!(table.is_marked(machine), "mark must mark");
                }
                Action::Probe { s } => {
                    let si = s as usize;
                    let tag = OpId::new(SessionId::new(machine, s as u32), seqs[si]);
                    seqs[si] += 1;
                    let verdict = table.probe(machine, tag);
                    assert_eq!(
                        verdict, marked,
                        "probe verdict must reflect the bit at probe time"
                    );
                    if verdict {
                        tag_epoch.insert(tag, mark_epoch);
                        last_tag[si] = Some(tag);
                        first_tag[si].get_or_insert(tag);
                    }
                }
                Action::Reset { s } | Action::StaleReset { s } => {
                    let si = s as usize;
                    let which = if matches!(a, Action::Reset { .. }) {
                        last_tag[si]
                    } else {
                        first_tag[si]
                    };
                    let Some(tag) = which else { continue };
                    let cleared = table.reset(machine, tag);
                    if cleared {
                        // Lemma 5.7 soundness: no mark intervened since the
                        // probe that created this tag.
                        assert_eq!(
                            tag_epoch.get(&tag).copied(), Some(mark_epoch),
                            "reset cleared across an intervening slow-release"
                        );
                        assert!(!table.is_marked(machine));
                        marked = false;
                    }
                }
            }
        }

        // The oracle's marked flag always agrees with the table at the end.
        assert_eq!(table.is_marked(machine), marked);
    });
}
