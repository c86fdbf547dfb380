//! A retransmission is the first transmission, resent to whoever has not
//! answered (`docs/INVARIANTS.md`): every quorum round an initiator opens
//! is described once (`kite::inflight::Round`), so what goes out at the
//! round's start and what the retransmit scan sends later must be the same
//! message, to the first destinations minus the peers that replied.
//!
//! One real worker (node 0 of 5, so a single reply never makes a quorum)
//! runs one op of each class; nodes 1–4 are real workers used only to
//! compose replies, and a scenario says which of them answer what, and how
//! long each answer takes to come back.
//!
//! A round is timed once as well: the scan resends an entry's rounds one
//! retransmission period after the latest of them was sent, so a round that
//! opens late is not resent at its entry's older due time.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use kite::{Msg, NodeShared, Op, ProtocolMode, Session, SessionDriver, Worker};
use kite_common::stats::ProtoCounters;
use kite_common::{ClusterConfig, Key, Lc, Membership, NodeId, NodeSet, SessionId, Val, MEMBERSHIP_KEY};
use kite_simnet::{Actor, Outbox};

const NODES: usize = 5;
const MS: u64 = 1_000_000;
const RELEASE_TIMEOUT: u64 = MS;
const RETRANSMIT: u64 = 4 * MS;
const TICK: u64 = MS / 2;
/// How late the peers' answers come back in the late-round scenarios: more
/// than a period, so what they open opens long after its entry's first send.
const LATE: u64 = RETRANSMIT + MS;
/// The scan's cadence (`retransmit_ns / 2`): a due round goes out at the
/// first scan past its due time.
const SCAN: u64 = RETRANSMIT / 2;
/// Session indices, one per op class.
const RELEASE: usize = 0;
const ACQUIRE: usize = 1;
const FAA: usize = 2;
const WINDOW: usize = 3;
const SLOW_READ: usize = 4;
const SLOW_WRITE: usize = 5;
/// A release with no writes before it, and an FAA on a key a peer has
/// promised a high ballot for.
const BARE_RELEASE: usize = 6;
const DUEL: usize = 7;
const SESSIONS: usize = 8;
/// The acquire's and the slow read's keys: a scenario may seed a fresher
/// value at node 1, which forces their write-back rounds.
const ACQUIRE_KEY: Key = Key(20);
const SLOW_READ_KEY: Key = Key(50);
/// The first of the keys the window session writes.
const WINDOW_KEYS: u64 = 100;
const DUEL_KEY: Key = Key(31);

fn cfg() -> ClusterConfig {
    ClusterConfig::small()
        .nodes(NODES)
        .anti_entropy(false)
        .release_timeout_ns(RELEASE_TIMEOUT)
        .retransmit_ns(RETRANSMIT)
}

/// A round: the rid, the kind of its request and what else tells its
/// rounds apart — a Paxos phase's ballot version, a DM round's DM-set (a
/// re-proposal and a grown DM-set are new rounds of the same entry).
type RoundId = (u64, &'static str, u64);

/// The round a quorum request belongs to; `None` for everything else.
fn round_of(m: &Msg) -> Option<RoundId> {
    let version = match m {
        Msg::Propose { ballot, .. } | Msg::Accept { ballot, .. } => ballot.version(),
        Msg::SlowRelease { dm, .. } => dm.0.into(),
        _ => 0,
    };
    match m {
        Msg::EsWrite { rid, .. }
        | Msg::RtsReq { rid, .. }
        | Msg::ReadReq { rid, .. }
        | Msg::WriteMsg { rid, .. }
        | Msg::WriteAcq { rid, .. }
        | Msg::SlowRelease { rid, .. }
        | Msg::Propose { rid, .. }
        | Msg::Accept { rid, .. }
        | Msg::Commit { rid, .. } => Some((*rid, m.tag(), version)),
        _ => None,
    }
}

/// One flush's worth of one round: `(destination, message)` pairs.
type Transmission = BTreeSet<(u8, String)>;

/// One flush of one round: when, and who had answered the round before it.
struct Flush {
    at: u64,
    sent: Transmission,
    answered: BTreeSet<u8>,
}

/// A peer's replies on their way back to node 0: due time, sender, the
/// round they answer.
type InTransit = (u64, NodeId, RoundId, Vec<Msg>);

struct Harness {
    nodes: Vec<Worker>,
    shared: Vec<Arc<NodeShared>>,
    out: Outbox<Msg>,
    /// Completions node 0 returned, per session.
    completed: Vec<usize>,
    now: u64,
    /// Which peers answer which requests.
    answers: fn(NodeId, &Msg) -> bool,
    /// How long an answer to each request kind takes to reach node 0.
    delay: fn(&'static str) -> u64,
    in_transit: Vec<InTransit>,
    /// Per round, its flushes in order.
    log: BTreeMap<RoundId, Vec<Flush>>,
    answered: BTreeMap<RoundId, BTreeSet<u8>>,
}

impl Harness {
    fn new(cfg: ClusterConfig, answers: fn(NodeId, &Msg) -> bool) -> Self {
        let shared: Vec<_> = (0..NODES as u8)
            .map(|n| NodeShared::new(NodeId(n), cfg.clone(), Arc::new(ProtoCounters::default())))
            .collect();
        let nodes = (0..NODES as u8)
            .map(|n| {
                // Only node 0 runs sessions; the peers are replicas.
                let sessions = (0..if n == 0 { SESSIONS as u32 } else { 0 })
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
            completed: vec![0; SESSIONS],
            now: 0,
            answers,
            delay: |_| 0,
            in_transit: Vec::new(),
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
    /// peers answer it; their replies go back in once their delay has passed
    /// (and whatever those provoke is recorded as flushes of their own).
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
            self.log.entry(round).or_default().push(Flush { at: self.now, sent, answered });
        }
        for (dst, m) in sent {
            let Some(round) = round_of(&m) else { continue };
            if !(self.answers)(dst, &m) {
                continue;
            }
            let mut reply_out: Outbox<Msg> = Outbox::new(NODES);
            self.nodes[dst.idx()].on_envelope(NodeId(0), 0, &mut vec![m], self.now, &mut reply_out);
            let mut replies = Vec::new();
            reply_out.flush(|to, batch| {
                assert_eq!(to, NodeId(0));
                replies.extend(batch);
            });
            self.in_transit.push((self.now + (self.delay)(round.1), dst, round, replies));
            self.deliver();
        }
    }

    /// Hand node 0 every reply that is due, oldest first.
    fn deliver(&mut self) {
        while let Some(i) = self.in_transit.iter().position(|(at, ..)| *at <= self.now) {
            let (_, src, round, mut replies) = self.in_transit.remove(i);
            self.answered.entry(round).or_default().insert(src.0);
            self.nodes[0].on_envelope(src, 0, &mut replies, self.now, &mut self.out);
            self.flush();
        }
    }

    /// One scheduling step of node 0. A session starts at most
    /// `OPS_PER_TICK` ops a call, so, like every runtime, the step calls
    /// again while the worker says it could start more.
    fn tick(&mut self) {
        self.deliver();
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
            for Flush { sent, answered, .. } in &flushes[1..] {
                let expected: Transmission =
                    first.iter().filter(|(dst, _)| !answered.contains(dst)).cloned().collect();
                assert_eq!(sent, &expected, "{round:?}: answered so far {answered:?}");
                retransmitted.insert(round.1);
            }
        }
        retransmitted
    }

    /// The rounds opened more than a period after their entry's first send
    /// must be resent one period after they opened (the first scan at or
    /// past it). Returns the kinds that were.
    fn late_rounds_resent(&self) -> BTreeSet<&'static str> {
        let mut first_send: BTreeMap<u64, u64> = BTreeMap::new();
        for ((rid, ..), flushes) in &self.log {
            let at = first_send.entry(*rid).or_insert(u64::MAX);
            *at = (*at).min(flushes[0].at);
        }
        let (mut resent, mut off_clock) = (BTreeSet::new(), Vec::new());
        for (round, flushes) in &self.log {
            let opened = flushes[0].at;
            if opened <= first_send[&round.0] + RETRANSMIT {
                continue;
            }
            let Some(again) = flushes.get(1).map(|f| f.at) else { continue };
            if !(opened + RETRANSMIT..opened + RETRANSMIT + SCAN).contains(&again) {
                off_clock.push(format!("{round:?} opened at {opened} ns, resent at {again} ns"));
            }
            resent.insert(round.1);
        }
        assert!(off_clock.is_empty(), "rounds resent off their own clock:\n{}", off_clock.join("\n"));
        resent
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
    // Nothing gets past its first round. No write reaches a quorum, so none
    // is ever late: neither the barrier nor the stalled window opens a
    // slow-release round.
    assert_eq!(
        h.check(),
        kinds(&["es-write", "rts-req", "read-req", "propose"]),
        "every first round was retransmitted"
    );
    assert!(!h.log.keys().any(|(_, kind, _)| *kind == "slow-release"));
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
    // One peer's ack makes no write quorum-acked: no slow-release round.
    assert_eq!(h.check(), kinds(&["es-write", "rts-req", "read-req", "propose"]));
    for (round, flushes) in &h.log {
        for Flush { sent, answered, .. } in &flushes[1..] {
            assert_eq!(answered, &BTreeSet::from([2]), "{round:?}");
            let dsts: Vec<u8> = sent.iter().map(|(dst, _)| *dst).collect();
            assert_eq!(dsts, [1, 3, 4], "{round:?} omits exactly the peer that answered");
        }
    }
}

/// Peers 1 and 2 answer first rounds (a quorum with node 0) and nobody
/// answers second rounds: value rounds, write-backs and accepts are opened
/// and then retransmitted whole. The ES writes' quorum starts their
/// lateness clocks, so the barrier and the stalled window open DM rounds a
/// release timeout later; those acks take two periods to come back, so the
/// DM rounds are resent before they resolve.
#[test]
fn second_rounds_are_retransmitted_like_first_rounds() {
    fn first_rounds(peer: NodeId, m: &Msg) -> bool {
        let first = matches!(m.tag(), "es-write" | "rts-req" | "read-req" | "propose" | "slow-release");
        peer.0 <= 2 && first
    }
    // The full-ABD ablation gives the slow-path read and write their
    // second rounds too.
    let mut h = Harness::new(cfg().stripped_slow_path(false), first_rounds);
    h.delay = |kind| if kind == "slow-release" { 2 * RETRANSMIT } else { 0 };
    // Node 1 holds a fresher value than anyone else: the reads find it at
    // one holder and must write it back.
    for key in [ACQUIRE_KEY, SLOW_READ_KEY] {
        h.shared[1].store.apply_max(key, &Val::from_u64(7), Lc::new(9, NodeId(1)));
    }
    h.run();
    let retransmitted = h.check();
    for kind in ["write", "write-acq", "accept", "slow-release"] {
        assert!(retransmitted.contains(kind), "{kind} rounds retransmitted: {retransmitted:?}");
    }
    let second_rounds = h.log.keys().filter(|(_, kind, _)| *kind == "write").count();
    assert_eq!(
        second_rounds, 4,
        "release value round, slow read write-back, value rounds of the slow write and of the \
         stalled write (relieved after the epoch bump, so it resumed on the slow path)"
    );
}

#[test]
fn commit_rounds_are_retransmitted_like_first_rounds() {
    let mut h = Harness::new(cfg(), |peer, m| peer.0 <= 2 && m.tag() != "commit");
    h.run();
    assert!(h.check().contains("commit"));
    assert_eq!(h.completed(FAA), 0, "the commit round never reached its quorum");
}

/// `overlap_release(false)` holds a release's first round (and an RMW's
/// propose) back until the barrier resolves: the deferred first
/// transmission is a first transmission like any other.
#[test]
fn deferred_first_rounds_are_retransmitted_like_the_others() {
    let mut h = Harness::new(cfg().overlap_release(false), |_, m| m.tag() == "es-write");
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
    assert!(!h.log.keys().any(|(_, kind, _)| *kind == "slow-release"));
}

/// A round can open long after its entry's first transmission: at a late
/// quorum, after a nack's back-off, at the barrier's timeout. Its
/// retransmission clock starts when it is sent, so the scan resends it one
/// period after it opened, not at its entry's older due time.
#[test]
fn a_round_that_opens_late_is_resent_one_period_after_it_opened() {
    // Peers 1 and 2 (a quorum with node 0) ack relaxed writes at once and
    // answer first rounds LATE after they were sent, accepts a millisecond
    // later still. Nobody answers the rounds those answers open.
    fn answers(peer: NodeId, m: &Msg) -> bool {
        peer.0 <= 2 && matches!(m.tag(), "es-write" | "rts-req" | "read-req" | "propose" | "accept")
    }
    // The barrier's timeout opens the slow-release round at LATE too; the
    // full-ABD ablation gives the slow-path read and write second rounds.
    let mut h = Harness::new(cfg().release_timeout_ns(LATE).stripped_slow_path(false), answers);
    h.delay = |kind| match kind {
        "es-write" => 0,
        "accept" => LATE + MS,
        _ => LATE,
    };
    // Node 1 holds a fresher value than anyone else (the reads write it
    // back) and has promised a high ballot on the duel's key (the first
    // propose there is nacked and proposed again after a back-off).
    for key in [ACQUIRE_KEY, SLOW_READ_KEY] {
        h.shared[1].store.apply_max(key, &Val::from_u64(7), Lc::new(9, NodeId(1)));
    }
    h.shared[1].store.paxos(DUEL_KEY).lock().promised = Lc::new(100, NodeId(1));
    h.write(RELEASE, 10);
    h.submit(RELEASE, Op::Release { key: Key(11), val: Val::from_u64(11) });
    h.submit(BARE_RELEASE, Op::Release { key: Key(12), val: Val::from_u64(12) });
    h.submit(ACQUIRE, Op::Acquire { key: ACQUIRE_KEY });
    h.submit(FAA, Op::Faa { key: Key(30), delta: 1 });
    h.submit(DUEL, Op::Faa { key: DUEL_KEY, delta: 1 });
    h.tick();
    assert!(h.shared[0].bump_epoch_once(0, h.now));
    h.submit(SLOW_READ, Op::Read { key: SLOW_READ_KEY });
    h.write(SLOW_WRITE, 51);
    while h.now <= 4 * RETRANSMIT {
        h.tick();
    }
    h.check();
    assert_eq!(
        h.late_rounds_resent(),
        kinds(&["write-acq", "slow-release", "write", "propose", "accept", "commit"]),
        "acquire write-back, barrier DM round, value rounds (release, slow read and write), \
         re-proposal, accept and commit each opened late and were resent one period later"
    );
}

/// A barrier's DM round grows when a later write ages out (Lemma 5.2): the
/// grown round opens late too, and is resent one period after it grew.
#[test]
fn a_dm_round_that_grows_late_is_resent_one_period_after_it_grew() {
    // Peers 1 and 2 ack every write, peer 3 only key 10's; nobody answers
    // anything else.
    fn answers(peer: NodeId, m: &Msg) -> bool {
        match m {
            Msg::EsWrite { key, .. } => peer.0 <= 2 || (peer.0 == 3 && *key == Key(10)),
            _ => false,
        }
    }
    let mut h = Harness::new(cfg().release_timeout_ns(LATE), answers);
    // Key 10's write is missing node 4 from t = 0, key 12's nodes 3 and 4
    // from 3 ms, when the release after them starts: the DM round opens
    // with {4} at 5 ms and grows to {3, 4} at 8 ms.
    h.write(RELEASE, 10);
    while h.now < 3 * MS {
        h.tick();
    }
    h.write(RELEASE, 12);
    h.submit(RELEASE, Op::Release { key: Key(11), val: Val::from_u64(11) });
    while h.now <= 4 * RETRANSMIT {
        h.tick();
    }
    // (No `check()`: node 4 is suspected once the DM round opens, so the
    // quorum-acked writes stop being resent to it.)
    let dm_rounds: Vec<_> = h.log.keys().filter(|(_, kind, _)| *kind == "slow-release").collect();
    assert_eq!(dm_rounds.len(), 2, "the DM round opened, then grew: {dm_rounds:?}");
    assert_eq!(h.late_rounds_resent(), kinds(&["slow-release"]));
}

/// The DM rounds node 0 opened: when, and the DM-set each published.
fn dm_rounds(h: &Harness) -> Vec<(u64, u64)> {
    let dm = h.log.iter().filter(|((_, kind, _), _)| *kind == "slow-release");
    dm.map(|((.., dm), flushes)| (flushes[0].at, *dm)).collect()
}

/// A write is late a release timeout after it reaches its quorum, not after
/// it is sent (`docs/INVARIANTS.md`): peers 1 and 2 ack the write LATE after
/// it was sent, so the barrier's DM round opens at the first tick at or
/// past LATE + RELEASE_TIMEOUT, publishing the two peers still missing.
#[test]
fn a_write_is_late_a_release_timeout_after_its_quorum() {
    let mut h = Harness::new(cfg(), |peer, m| peer.0 <= 2 && m.tag() == "es-write");
    h.delay = |_| LATE;
    h.write(RELEASE, 10);
    h.submit(RELEASE, Op::Release { key: Key(11), val: Val::from_u64(11) });
    while h.now <= 2 * RETRANSMIT {
        h.tick();
    }
    let [(opened, dm)] = dm_rounds(&h)[..] else { panic!("one DM round: {:?}", dm_rounds(&h)) };
    let due = LATE + RELEASE_TIMEOUT;
    assert!((due..due + TICK).contains(&opened), "DM round opened at {opened} ns, due at {due}");
    assert_eq!(dm, NodeSet(0b11000).0.into(), "peers 3 and 4 are missing");
}

/// A membership change can lower the quorum under a write with no ack left
/// to date it: the write is dated when it is first seen quorum-acked, at the
/// change, and is late a release timeout after that. The watchdog dump shows
/// the date (`quorum_at=`), and `-` before it.
#[test]
fn a_write_a_membership_change_makes_quorum_acked_is_late_a_release_timeout_later() {
    // Peer 1 alone acks the write: {0, 1} is no majority of five voters.
    let mut h = Harness::new(cfg(), |peer, m| peer == NodeId(1) && m.tag() == "es-write");
    h.write(RELEASE, 10);
    h.submit(RELEASE, Op::Release { key: Key(11), val: Val::from_u64(11) });
    while h.now < LATE {
        h.tick();
    }
    assert_eq!(dm_rounds(&h), [], "a write short of its quorum is never late");
    let dump = |h: &Harness| {
        let mut s = String::new();
        h.nodes[0].describe(&mut s);
        s
    };
    assert!(dump(&h).contains("es-write key=k10 op_id=n0s0#0 quorum_at=- "), "{}", dump(&h));
    // Nodes 3 and 4 become learners: {0, 1} is a majority of {0, 1, 2}.
    let m = Membership { epoch: 1, voters: NodeSet(0b00111), learners: NodeSet(0b11000) };
    for shared in &h.shared {
        shared.store.apply_max(MEMBERSHIP_KEY, &m.to_val(), Lc::new(1, NodeId(1)));
    }
    let changed = h.now;
    while h.now <= changed + 2 * RELEASE_TIMEOUT {
        h.tick();
    }
    let [(opened, dm)] = dm_rounds(&h)[..] else { panic!("one DM round: {:?}", dm_rounds(&h)) };
    let due = changed + RELEASE_TIMEOUT;
    assert!((due..due + TICK).contains(&opened), "DM round opened at {opened} ns, due at {due}");
    assert_eq!(dm, NodeSet(0b00100).0.into(), "voter 2 is missing");
    assert!(dump(&h).contains(&format!("quorum_at={changed} ")), "{}", dump(&h));
}
