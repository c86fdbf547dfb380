//! A retransmission is the first transmission, resent to whoever has not
//! answered (`docs/INVARIANTS.md`): every quorum round an initiator opens
//! is described once (`kite::inflight::Round`), so what goes out at the
//! round's start and what the retransmit scan sends later must be the same
//! message, to the first destinations minus the peers that replied.
//!
//! One real worker (node 0 of 5, so a single reply never makes a quorum)
//! runs one op of each class; nodes 1–4 are real workers used only to
//! compose replies, and a scenario says which of them answer what.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use kite::{Msg, NodeShared, Op, ProtocolMode, Session, SessionDriver, Worker};
use kite_common::stats::ProtoCounters;
use kite_common::{ClusterConfig, Key, Lc, NodeId, SessionId, Val};
use kite_simnet::{Actor, Outbox};

const NODES: usize = 5;
const MS: u64 = 1_000_000;
const RELEASE_TIMEOUT: u64 = MS;
const RETRANSMIT: u64 = 4 * MS;
const TICK: u64 = MS / 2;
/// Session indices, one per op class.
const RELEASE: usize = 0;
const ACQUIRE: usize = 1;
const FAA: usize = 2;
const WINDOW: usize = 3;
const SLOW_READ: usize = 4;
const SLOW_WRITE: usize = 5;
/// The acquire's and the slow read's keys: a scenario may seed a fresher
/// value at node 1, which forces their write-back rounds.
const ACQUIRE_KEY: Key = Key(20);
const SLOW_READ_KEY: Key = Key(50);
/// The first of the keys the window session writes.
const WINDOW_KEYS: u64 = 100;

fn cfg() -> ClusterConfig {
    ClusterConfig::small()
        .nodes(NODES)
        .anti_entropy(false)
        .release_timeout_ns(RELEASE_TIMEOUT)
        .retransmit_ns(RETRANSMIT)
}

/// A round: the rid and the kind of its request.
type RoundId = (u64, &'static str);

/// The round a quorum request belongs to; `None` for everything else.
fn round_of(m: &Msg) -> Option<RoundId> {
    match m {
        Msg::EsWrite { rid, .. }
        | Msg::RtsReq { rid, .. }
        | Msg::ReadReq { rid, .. }
        | Msg::WriteMsg { rid, .. }
        | Msg::WriteAcq { rid, .. }
        | Msg::SlowRelease { rid, .. }
        | Msg::Propose { rid, .. }
        | Msg::Accept { rid, .. }
        | Msg::Commit { rid, .. } => Some((*rid, m.tag())),
        _ => None,
    }
}

/// One flush's worth of one round: `(destination, message)` pairs.
type Transmission = BTreeSet<(u8, String)>;

/// One flush of one round, and who had answered the round before it.
struct Flush {
    sent: Transmission,
    answered: BTreeSet<u8>,
}

struct Harness {
    nodes: Vec<Worker>,
    shared: Vec<Arc<NodeShared>>,
    out: Outbox<Msg>,
    /// Completions node 0 returned, per session.
    completed: Vec<usize>,
    now: u64,
    /// Which peers answer which request kinds.
    answers: fn(NodeId, &'static str) -> bool,
    /// Per round, its flushes in order.
    log: BTreeMap<RoundId, Vec<Flush>>,
    answered: BTreeMap<RoundId, BTreeSet<u8>>,
}

impl Harness {
    fn new(cfg: ClusterConfig, answers: fn(NodeId, &'static str) -> bool) -> Self {
        let shared: Vec<_> = (0..NODES as u8)
            .map(|n| NodeShared::new(NodeId(n), cfg.clone(), Arc::new(ProtoCounters::default())))
            .collect();
        let nodes = (0..NODES as u8)
            .map(|n| {
                // Only node 0 runs sessions; the peers are replicas.
                let sessions = (0..if n == 0 { 6 } else { 0 })
                    .map(|slot| {
                        let mut s = Session::new(SessionId::new(NodeId(n), slot));
                        s.driver = SessionDriver::Client(VecDeque::new());
                        s
                    })
                    .collect();
                Worker::new(0, Arc::clone(&shared[n as usize]), ProtocolMode::Kite, sessions, None)
            })
            .collect();
        Harness {
            nodes,
            shared,
            out: Outbox::new(NODES),
            completed: vec![0; 6],
            now: 0,
            answers,
            log: BTreeMap::new(),
            answered: BTreeMap::new(),
        }
    }

    fn submit(&mut self, session: usize, op: Op) {
        self.nodes[0].submit(SessionId::new(NodeId(0), session as u32), op);
    }

    fn write(&mut self, session: usize, key: u64) {
        self.submit(session, Op::Write { key: Key(key), val: Val::from_u64(key) });
    }

    /// Record what node 0 just put in its outbox, then let the scenario's
    /// peers answer it; their replies go straight back in (and whatever
    /// those provoke is recorded as flushes of their own).
    fn flush(&mut self) {
        for c in self.nodes[0].completions() {
            self.completed[c.op_id.session.slot as usize] += 1;
        }
        let mut sent: Vec<(NodeId, Msg)> = Vec::new();
        self.out.flush(|dst, batch| sent.extend(batch.into_iter().map(|m| (dst, m))));
        let mut flushed: BTreeMap<RoundId, Transmission> = BTreeMap::new();
        for (dst, m) in &sent {
            if let Some(round) = round_of(m) {
                let fresh = flushed.entry(round).or_default().insert((dst.0, format!("{m:?}")));
                assert!(fresh, "{round:?} sent twice to {dst} in one step");
            }
        }
        for (round, sent) in flushed {
            let answered = self.answered.get(&round).cloned().unwrap_or_default();
            self.log.entry(round).or_default().push(Flush { sent, answered });
        }
        for (dst, m) in sent {
            let Some(round) = round_of(&m) else { continue };
            if !(self.answers)(dst, round.1) {
                continue;
            }
            self.answered.entry(round).or_default().insert(dst.0);
            let mut reply_out: Outbox<Msg> = Outbox::new(NODES);
            self.nodes[dst.idx()].on_envelope(NodeId(0), 0, &mut vec![m], self.now, &mut reply_out);
            let mut replies = Vec::new();
            reply_out.flush(|to, batch| {
                assert_eq!(to, NodeId(0));
                replies.extend(batch);
            });
            self.nodes[0].on_envelope(dst, 0, &mut replies, self.now, &mut self.out);
            self.flush();
        }
    }

    /// One scheduling step of node 0. A session starts at most
    /// `OPS_PER_TICK` ops a call, so, like every runtime, the step calls
    /// again while the worker says it could start more.
    fn tick(&mut self) {
        while self.nodes[0].on_tick(self.now, &mut self.out).more_now {
            self.flush();
        }
        self.flush();
        self.now += TICK;
    }

    /// One op of each class, then three retransmission periods of ticks.
    fn run(&mut self) {
        // A tracked relaxed write, then the release whose barrier waits on
        // it; an acquire; an FAA; a window filled and one write too many.
        self.write(RELEASE, 10);
        self.submit(RELEASE, Op::Release { key: Key(11), val: Val::from_u64(11) });
        self.submit(ACQUIRE, Op::Acquire { key: ACQUIRE_KEY });
        self.submit(FAA, Op::Faa { key: Key(30), delta: 1 });
        for key in WINDOW_KEYS..=WINDOW_KEYS + ClusterConfig::WRITE_WINDOW as u64 {
            self.write(WINDOW, key);
        }
        self.tick();
        // Every key falls out of epoch: relaxed accesses take the slow path.
        assert!(self.shared[0].bump_epoch_once(0, self.now));
        self.submit(SLOW_READ, Op::Read { key: SLOW_READ_KEY });
        self.write(SLOW_WRITE, 51);
        while self.now <= 3 * RETRANSMIT {
            self.tick();
        }
    }

    /// The invariant, over everything logged: each later flush of a round
    /// carries the first flush's message to the first flush's destinations
    /// minus the peers that had answered by then. Returns the kinds that
    /// were retransmitted at least once.
    fn check(&self) -> BTreeSet<&'static str> {
        let mut retransmitted = BTreeSet::new();
        for (round, flushes) in &self.log {
            let first = &flushes[0].sent;
            for Flush { sent, answered } in &flushes[1..] {
                let expected: Transmission =
                    first.iter().filter(|(dst, _)| !answered.contains(dst)).cloned().collect();
                assert_eq!(sent, &expected, "{round:?}: answered so far {answered:?}");
                retransmitted.insert(round.1);
            }
        }
        retransmitted
    }

    fn completed(&self, session: usize) -> usize {
        self.completed[session]
    }
}

fn kinds(list: &[&'static str]) -> BTreeSet<&'static str> {
    list.iter().copied().collect()
}

#[test]
fn silent_peers_are_sent_the_first_transmission_again() {
    let mut h = Harness::new(cfg(), |_, _| false);
    h.run();
    // The barrier and the stalled window time out into slow-release rounds;
    // nothing gets past its first round.
    assert_eq!(
        h.check(),
        kinds(&["es-write", "rts-req", "read-req", "propose", "slow-release"]),
        "every first round was retransmitted"
    );
    for (round, flushes) in &h.log {
        assert_eq!(flushes[0].sent.len(), NODES - 1, "{round:?} first goes to every peer");
    }
    let relaxed_writes = h.completed(RELEASE) + h.completed(WINDOW);
    assert_eq!(relaxed_writes, 1 + ClusterConfig::WRITE_WINDOW, "nothing else completed");
}

#[test]
fn a_peer_that_answered_is_not_sent_the_round_again() {
    let mut h = Harness::new(cfg(), |peer, _| peer == NodeId(2));
    h.run();
    assert_eq!(
        h.check(),
        kinds(&["es-write", "rts-req", "read-req", "propose", "slow-release"]),
    );
    for (round, flushes) in &h.log {
        for Flush { sent, answered } in &flushes[1..] {
            assert_eq!(answered, &BTreeSet::from([2]), "{round:?}");
            let dsts: Vec<u8> = sent.iter().map(|(dst, _)| *dst).collect();
            assert_eq!(dsts, [1, 3, 4], "{round:?} omits exactly the peer that answered");
        }
    }
}

/// Peers 1 and 2 answer first rounds (a quorum with node 0) and nobody
/// answers second rounds: value rounds, write-backs and accepts are opened
/// and then retransmitted whole.
#[test]
fn second_rounds_are_retransmitted_like_first_rounds() {
    fn first_rounds(peer: NodeId, kind: &'static str) -> bool {
        let first = matches!(kind, "es-write" | "rts-req" | "read-req" | "propose" | "slow-release");
        peer.0 <= 2 && first
    }
    // The full-ABD ablation gives the slow-path read and write their
    // second rounds too.
    let mut h = Harness::new(cfg().stripped_slow_path(false), first_rounds);
    // Node 1 holds a fresher value than anyone else: the reads find it at
    // one holder and must write it back.
    for key in [ACQUIRE_KEY, SLOW_READ_KEY] {
        h.shared[1].store.apply_max(key, &Val::from_u64(7), Lc::new(9, NodeId(1)));
    }
    h.run();
    let retransmitted = h.check();
    for kind in ["write", "write-acq", "accept"] {
        assert!(retransmitted.contains(kind), "{kind} rounds retransmitted: {retransmitted:?}");
    }
    let second_rounds = h.log.iter().filter(|((_, kind), _)| *kind == "write").count();
    assert_eq!(
        second_rounds, 4,
        "release value round, slow read write-back, value rounds of the slow write and of the \
         stalled write (relieved after the epoch bump, so it resumed on the slow path)"
    );
}

#[test]
fn commit_rounds_are_retransmitted_like_first_rounds() {
    let mut h = Harness::new(cfg(), |peer, kind| peer.0 <= 2 && kind != "commit");
    h.run();
    assert!(h.check().contains("commit"));
    assert_eq!(h.completed(FAA), 0, "the commit round never reached its quorum");
}

/// `overlap_release(false)` holds a release's first round (and an RMW's
/// propose) back until the barrier resolves: the deferred first
/// transmission is a first transmission like any other.
#[test]
fn deferred_first_rounds_are_retransmitted_like_the_others() {
    let mut h = Harness::new(cfg().overlap_release(false), |_, kind| kind == "es-write");
    h.write(RELEASE, 10);
    h.submit(RELEASE, Op::Release { key: Key(11), val: Val::from_u64(11) });
    h.write(FAA, 30);
    h.submit(FAA, Op::Faa { key: Key(31), delta: 1 });
    while h.now <= 3 * RETRANSMIT {
        h.tick();
    }
    // Every peer acked the writes, so both barriers resolved on the fast
    // path; only then were the stamp round and the propose sent.
    assert_eq!(h.check(), kinds(&["rts-req", "propose"]));
    assert!(!h.log.keys().any(|(_, kind)| *kind == "slow-release"));
}
