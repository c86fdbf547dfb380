//! Closed-loop data-structure clients and the §8.3 benchmark layout.
//!
//! Each client session repeatedly picks a structure and performs a
//! *push-then-pop* pair (insert-then-remove for lists) — the paper's
//! workload, which guarantees pops never observe an empty structure.
//! Clients run the §8.3 correctness checks inline:
//!
//! * **no empty pops** — an empty pop means a lost element;
//! * **object consistency** — every payload field of a popped object must
//!   carry the tag of one single push (a torn object would mean the RC
//!   barriers failed to order node-field writes before the publishing CAS).

use std::sync::Arc;

use kite::api::{Completion, Op, OpOutput};
use kite::session::ClientSm;
use kite_common::rng::SplitMix64;
use kite_common::{Key, Val};
use kite_kvs::Store;
use kite_metrics::Counter;

use crate::hml::{HmList, HmlInsert, HmlRemove};
use crate::machine::{DsMachine, DsOutcome, Step};
use crate::msq::{MsQueue, MsqDequeue, MsqEnqueue};
use crate::ptr::NodeArena;
#[cfg(test)]
use crate::ptr::Ptr;
use crate::treiber::{TreiberStack, TsPop, TsPush};

/// Shared statistics across all clients of a run.
#[derive(Default, Debug)]
pub struct DsStats {
    /// Completed operation pairs (one pair = 2 DS ops = the paper's unit:
    /// "6 mops means 3 million pushes and 3 million pops").
    pub pairs: Counter,
    /// Completed pushes / enqueues / inserts.
    pub pushes: Counter,
    /// Completed pops / dequeues / removes.
    pub pops: Counter,
    /// Pops that found the structure empty — must stay 0 (§8.3 assert).
    pub empty_pops: Counter,
    /// Popped objects whose fields carried mixed push tags — must stay 0.
    pub torn_objects: Counter,
    /// CAS conflict retries across all operations.
    pub retries: Counter,
    /// List inserts rejected as duplicates (possible under contention).
    pub dup_inserts: Counter,
    /// List removes that found the item already gone.
    pub missing_removes: Counter,
}

/// Which structure family a workload exercises.
#[derive(Clone, Debug)]
pub enum DsWorkload {
    /// Treiber stacks (§8.3 TS).
    Stacks(Vec<TreiberStack>),
    /// Michael-Scott queues (§8.3 MSQ).
    Queues(Vec<MsQueue>),
    /// Harris-Michael lists (§8.3 HML).
    Lists {
        /// The lists.
        lists: Vec<HmList>,
        /// Items are drawn from `1..=item_range`.
        item_range: u64,
    },
}

impl DsWorkload {
    /// Payload fields per object in this workload.
    pub fn fields(&self) -> usize {
        match self {
            DsWorkload::Stacks(s) => s[0].fields,
            DsWorkload::Queues(q) => q[0].fields,
            DsWorkload::Lists { lists, .. } => lists[0].fields,
        }
    }

    fn count(&self) -> usize {
        match self {
            DsWorkload::Stacks(s) => s.len(),
            DsWorkload::Queues(q) => q.len(),
            DsWorkload::Lists { lists, .. } => lists.len(),
        }
    }
}

enum Active {
    TsPush(TsPush),
    TsPop(TsPop),
    Enq(MsqEnqueue),
    Deq(MsqDequeue),
    Ins(HmlInsert),
    Rem(HmlRemove),
}

impl Active {
    fn step(&mut self, last: Option<&OpOutput>) -> Step {
        match self {
            Active::TsPush(m) => m.step(last),
            Active::TsPop(m) => m.step(last),
            Active::Enq(m) => m.step(last),
            Active::Deq(m) => m.step(last),
            Active::Ins(m) => m.step(last),
            Active::Rem(m) => m.step(last),
        }
    }
}

/// Phase within the current pair.
enum Phase {
    /// Start the pair's first op next.
    First,
    /// First op done; start the second on structure `ds` (item for lists).
    Second { ds: usize, item: u64 },
}

/// A closed-loop client running `pairs` push/pop pairs against a workload.
/// Unique payload tags: `(client_id, pair_index, field_index)`.
pub struct DsClient {
    id: u64,
    workload: DsWorkload,
    arena: NodeArena,
    rng: SplitMix64,
    pairs_left: u64,
    pair_idx: u64,
    phase: Phase,
    active: Option<Active>,
    last_out: Option<OpOutput>,
    stats: Arc<DsStats>,
    force_strong_cas: bool,
}

impl DsClient {
    /// A client performing `pairs` push/pop pairs against `workload`.
    pub fn new(
        id: u64,
        workload: DsWorkload,
        arena: NodeArena,
        pairs: u64,
        seed: u64,
        stats: Arc<DsStats>,
    ) -> Self {
        assert!(workload.count() > 0);
        DsClient {
            id,
            workload,
            arena,
            rng: SplitMix64::new(seed),
            pairs_left: pairs,
            pair_idx: 0,
            phase: Phase::First,
            active: None,
            last_out: None,
            stats,
            force_strong_cas: false,
        }
    }

    /// Rewrite every weak CAS the machines emit into a strong CAS — the
    /// §8.3 ablation of the weak flavor. With it, a conflicting retry that
    /// would have failed locally (and cost nothing) instead pays a remote
    /// consensus check; `ablation_cas` measures the difference.
    pub fn strong_cas(mut self, on: bool) -> Self {
        self.force_strong_cas = on;
        self
    }

    fn payload(&self, fields: usize) -> Vec<Val> {
        (0..fields)
            .map(|f| {
                let mut b = [0u8; 24];
                b[..8].copy_from_slice(&self.id.to_le_bytes());
                b[8..16].copy_from_slice(&self.pair_idx.to_le_bytes());
                b[16..24].copy_from_slice(&(f as u64).to_le_bytes());
                Val::from_bytes(&b)
            })
            .collect()
    }

    /// §8.3 consistency check: all fields of one object must belong to one
    /// push (same client and pair tag) and be field-complete.
    fn check_object(&self, fields: &[Val]) -> bool {
        if fields.is_empty() {
            return true;
        }
        let tag = |v: &Val| {
            let b = v.as_bytes();
            if b.len() < 24 {
                return None;
            }
            Some((
                u64::from_le_bytes(b[..8].try_into().unwrap()),
                u64::from_le_bytes(b[8..16].try_into().unwrap()),
                u64::from_le_bytes(b[16..24].try_into().unwrap()),
            ))
        };
        let Some((c0, p0, _)) = tag(&fields[0]) else { return false };
        fields.iter().enumerate().all(|(i, v)| match tag(v) {
            Some((c, p, f)) => c == c0 && p == p0 && f == i as u64,
            None => false,
        })
    }

    /// Construct the next machine according to the pair phase.
    fn next_machine(&mut self) -> Option<Active> {
        if self.pairs_left == 0 {
            return None;
        }
        match self.phase {
            Phase::First => {
                let ds = self.rng.next_below(self.workload.count() as u64) as usize;
                let fields = self.workload.fields();
                let payload = self.payload(fields);
                match &self.workload {
                    DsWorkload::Stacks(stacks) => {
                        let node = self.arena.alloc();
                        self.phase = Phase::Second { ds, item: 0 };
                        Some(Active::TsPush(TsPush::new(stacks[ds], node, payload)))
                    }
                    DsWorkload::Queues(queues) => {
                        let node = self.arena.alloc();
                        self.phase = Phase::Second { ds, item: 0 };
                        Some(Active::Enq(MsqEnqueue::new(queues[ds], node, payload)))
                    }
                    DsWorkload::Lists { lists, item_range } => {
                        // Unique-ish item per client to bound duplicate rates.
                        let item = 1 + self.rng.next_below(*item_range);
                        let node = self.arena.alloc();
                        self.phase = Phase::Second { ds, item };
                        Some(Active::Ins(HmlInsert::new(lists[ds], item, node, payload)))
                    }
                }
            }
            Phase::Second { ds, item } => {
                self.phase = Phase::First;
                match &self.workload {
                    DsWorkload::Stacks(stacks) => Some(Active::TsPop(TsPop::new(stacks[ds]))),
                    DsWorkload::Queues(queues) => Some(Active::Deq(MsqDequeue::new(queues[ds]))),
                    DsWorkload::Lists { lists, .. } => {
                        Some(Active::Rem(HmlRemove::new(lists[ds], item)))
                    }
                }
            }
        }
    }

    fn absorb(&mut self, outcome: DsOutcome) {
        self.stats.retries.add(outcome.retries() as u64);
        match outcome {
            DsOutcome::Pushed { .. } => {
                self.stats.pushes.incr();
            }
            DsOutcome::Popped { fields, node, .. } => {
                self.stats.pops.incr();
                match fields {
                    None => {
                        self.stats.empty_pops.incr();
                    }
                    Some(fs) => {
                        if !self.check_object(&fs) {
                            self.stats.torn_objects.incr();
                        }
                        if !node.is_null() && self.arena.owns(node) {
                            self.arena.free(node);
                        }
                    }
                }
                self.pair_done();
            }
            DsOutcome::Inserted { ok, .. } => {
                self.stats.pushes.incr();
                if !ok {
                    self.stats.dup_inserts.incr();
                    // the prepared node was never linked: reclaim it
                    if let Some(Active::Ins(m)) = &self.active {
                        let node = m.node();
                        if self.arena.owns(node) {
                            self.arena.free(node);
                        }
                    }
                }
            }
            DsOutcome::Removed { ok, .. } => {
                self.stats.pops.incr();
                if !ok {
                    self.stats.missing_removes.incr();
                }
                self.pair_done();
            }
        }
    }

    fn pair_done(&mut self) {
        self.stats.pairs.incr();
        self.pairs_left -= 1;
        self.pair_idx += 1;
    }
}

impl ClientSm for DsClient {
    fn next_op(&mut self, _seq: u64) -> Option<Op> {
        loop {
            if self.active.is_none() {
                self.active = self.next_machine();
                self.last_out = None;
            }
            let act = self.active.as_mut()?;
            let step = act.step(self.last_out.take().as_ref());
            match step {
                Step::Exec(Op::CasWeak { key, expect, new }) if self.force_strong_cas => {
                    return Some(Op::CasStrong { key, expect, new });
                }
                Step::Exec(op) => return Some(op),
                Step::Done(outcome) => {
                    self.absorb(outcome);
                    self.active = None;
                }
            }
        }
    }

    fn on_completion(&mut self, c: &Completion) {
        self.last_out = Some(c.output.clone());
    }

    fn finished(&self) -> bool {
        self.pairs_left == 0 && self.active.is_none()
    }
}

// ====================================================================
// Benchmark layout (key-space planning for §8.3 runs)
// ====================================================================

/// Key-space layout for a data-structure experiment: structure cells first,
/// then one node arena per client. Queue dummies come from a reserved setup
/// arena.
#[derive(Clone, Copy, Debug)]
pub struct DsLayout {
    /// Number of structures.
    pub structures: usize,
    /// Payload fields per object.
    pub fields: usize,
    /// Number of client sessions.
    pub clients: usize,
    /// Arena capacity per client (size ≥ pairs + slack, since cross-client
    /// reclamation is conservative).
    pub nodes_per_client: u64,
}

impl DsLayout {
    const CELLS_BASE: u64 = 1; // key 0 = NULL

    fn stride(&self) -> u64 {
        1 + self.fields as u64
    }

    /// Keys used by structure cells (2 per structure: head+tail; stacks and
    /// lists use only the first).
    fn cells_len(&self) -> u64 {
        self.structures as u64 * 2
    }

    fn setup_arena_base(&self) -> u64 {
        Self::CELLS_BASE + self.cells_len()
    }

    fn client_arena_base(&self, client: usize) -> u64 {
        self.setup_arena_base()
            + (self.structures as u64 + 1) * self.stride() // dummies
            + client as u64 * self.nodes_per_client * self.stride()
    }

    /// Total key-space required (pass to `ClusterConfig::keys`).
    pub fn keys_needed(&self) -> usize {
        self.client_arena_base(self.clients) as usize + 1
    }

    /// The `i`-th stack of the layout.
    pub fn stack(&self, i: usize) -> TreiberStack {
        TreiberStack { top: Key(Self::CELLS_BASE + 2 * i as u64), fields: self.fields }
    }

    /// The `i`-th queue of the layout.
    pub fn queue(&self, i: usize) -> MsQueue {
        MsQueue {
            head: Key(Self::CELLS_BASE + 2 * i as u64),
            tail: Key(Self::CELLS_BASE + 2 * i as u64 + 1),
            fields: self.fields,
        }
    }

    /// The `i`-th list of the layout.
    pub fn list(&self, i: usize) -> HmList {
        HmList { head: Key(Self::CELLS_BASE + 2 * i as u64), fields: self.fields }
    }

    /// Arena for one client.
    pub fn arena(&self, client: usize) -> NodeArena {
        NodeArena::new(self.client_arena_base(client), self.nodes_per_client, self.fields)
    }

    /// Initialize queue dummies in one replica's store (call per node,
    /// before the run — the preloaded-KVS step of §7).
    pub fn init_queues(&self, store: &Store) {
        let mut setup = NodeArena::new(self.setup_arena_base(), self.structures as u64 + 1, self.fields);
        for i in 0..self.structures {
            let dummy = setup.alloc();
            self.queue(i).init_store(store, dummy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_regions_are_disjoint() {
        let l = DsLayout { structures: 10, fields: 4, clients: 3, nodes_per_client: 16 };
        // cells end before setup arena; arenas don't overlap
        let a0 = l.arena(0).key_span();
        let a1 = l.arena(1).key_span();
        let a2 = l.arena(2).key_span();
        assert!(a0.end <= a1.start);
        assert!(a1.end <= a2.start);
        assert!(l.stack(9).top.0 < l.setup_arena_base());
        assert!(a2.end as usize <= l.keys_needed());
    }

    #[test]
    fn payload_tags_round_trip_through_check() {
        let l = DsLayout { structures: 1, fields: 4, clients: 1, nodes_per_client: 8 };
        let stats = Arc::new(DsStats::default());
        let c = DsClient::new(
            7,
            DsWorkload::Stacks(vec![l.stack(0)]),
            l.arena(0),
            1,
            42,
            stats,
        );
        let p = c.payload(4);
        assert_eq!(p.len(), 4);
        assert!(c.check_object(&p), "own payload must pass the check");
        // a torn object: mix fields from two pairs
        let mut torn = p.clone();
        let mut other = DsClient::new(
            7,
            DsWorkload::Stacks(vec![l.stack(0)]),
            l.arena(0),
            1,
            43,
            Arc::new(DsStats::default()),
        );
        other.pair_idx = 99;
        torn[2] = other.payload(4)[2].clone();
        assert!(!c.check_object(&torn), "mixed pair tags must be flagged");
    }

    #[test]
    fn client_runs_one_stack_pair_against_scripted_outputs() {
        // Drive the ClientSm by hand simulating a trivially correct KVS:
        // maintain a map key → val and answer ops.
        let l = DsLayout { structures: 2, fields: 2, clients: 1, nodes_per_client: 8 };
        let stats = Arc::new(DsStats::default());
        let mut c = DsClient::new(
            1,
            DsWorkload::Stacks(vec![l.stack(0), l.stack(1)]),
            l.arena(0),
            3,
            9,
            Arc::clone(&stats),
        );
        let mut kv: std::collections::HashMap<Key, Val> = std::collections::HashMap::new();
        let mut steps = 0;
        while let Some(op) = c.next_op(0) {
            steps += 1;
            assert!(steps < 10_000, "client must terminate");
            let output = match op {
                Op::Read { key } | Op::Acquire { key } => {
                    OpOutput::Value(kv.get(&key).cloned().unwrap_or(Val::EMPTY))
                }
                Op::Write { key, val } | Op::Release { key, val } => {
                    kv.insert(key, val);
                    OpOutput::Done
                }
                Op::CasWeak { key, expect, new } | Op::CasStrong { key, expect, new } => {
                    let cur = kv.get(&key).cloned().unwrap_or(Val::EMPTY);
                    if cur == expect {
                        kv.insert(key, new);
                        OpOutput::Cas { ok: true, observed: cur }
                    } else {
                        OpOutput::Cas { ok: false, observed: cur }
                    }
                }
                Op::Faa { key, delta } => {
                    let cur = kv.get(&key).cloned().unwrap_or(Val::EMPTY).as_u64();
                    kv.insert(key, Val::from_u64(cur + delta));
                    OpOutput::Faa(cur)
                }
            };
            c.on_completion(&Completion {
                op_id: kite_common::OpId::new(kite_common::SessionId::new(kite_common::NodeId(0), 0), 0),
                op: Op::Read { key: Key(0) },
                output,
                invoked_at: 0,
                completed_at: 0,
            });
        }
        assert!(c.finished());
        assert_eq!(stats.pairs.get(), 3);
        assert_eq!(stats.pushes.get(), 3);
        assert_eq!(stats.pops.get(), 3);
        assert_eq!(stats.empty_pops.get(), 0, "pop after push never sees empty");
        assert_eq!(stats.torn_objects.get(), 0);
    }

    /// The `strong_cas` ablation toggle rewrites every weak CAS the
    /// machines emit (and only those) into the strong flavor.
    #[test]
    fn strong_cas_rewrites_weak_ops() {
        let l = DsLayout { structures: 1, fields: 1, clients: 1, nodes_per_client: 8 };
        let run = |strong: bool| {
            let mut c = DsClient::new(
                1,
                DsWorkload::Stacks(vec![l.stack(0)]),
                l.arena(0),
                2,
                9,
                Arc::new(DsStats::default()),
            )
            .strong_cas(strong);
            let mut kv: std::collections::HashMap<Key, Val> = std::collections::HashMap::new();
            let mut weak = 0u64;
            let mut strong_seen = 0u64;
            while let Some(op) = c.next_op(0) {
                let output = match op {
                    Op::Read { key } | Op::Acquire { key } => {
                        OpOutput::Value(kv.get(&key).cloned().unwrap_or(Val::EMPTY))
                    }
                    Op::Write { key, val } | Op::Release { key, val } => {
                        kv.insert(key, val);
                        OpOutput::Done
                    }
                    Op::CasWeak { key, expect, new } => {
                        weak += 1;
                        let cur = kv.get(&key).cloned().unwrap_or(Val::EMPTY);
                        if cur == expect {
                            kv.insert(key, new);
                            OpOutput::Cas { ok: true, observed: cur }
                        } else {
                            OpOutput::Cas { ok: false, observed: cur }
                        }
                    }
                    Op::CasStrong { key, expect, new } => {
                        strong_seen += 1;
                        let cur = kv.get(&key).cloned().unwrap_or(Val::EMPTY);
                        if cur == expect {
                            kv.insert(key, new);
                            OpOutput::Cas { ok: true, observed: cur }
                        } else {
                            OpOutput::Cas { ok: false, observed: cur }
                        }
                    }
                    Op::Faa { .. } => unreachable!(),
                };
                c.on_completion(&Completion {
                    op_id: kite_common::OpId::new(
                        kite_common::SessionId::new(kite_common::NodeId(0), 0),
                        0,
                    ),
                    op: Op::Read { key: Key(0) },
                    output,
                    invoked_at: 0,
                    completed_at: 0,
                });
            }
            assert!(c.finished());
            (weak, strong_seen)
        };
        let (weak, strong) = run(false);
        assert!(weak > 0 && strong == 0, "default emits weak CAS only");
        let (weak, strong) = run(true);
        assert!(strong > 0 && weak == 0, "ablation emits strong CAS only");
    }

    #[test]
    fn client_runs_queue_pairs_against_scripted_outputs() {
        let l = DsLayout { structures: 1, fields: 2, clients: 1, nodes_per_client: 16 };
        let stats = Arc::new(DsStats::default());
        let mut kv: std::collections::HashMap<Key, Val> = std::collections::HashMap::new();
        // init the queue dummy like a replica store would
        {
            let store = Store::new(l.keys_needed() * 2);
            l.init_queues(&store);
            // copy the three initialized cells into the toy map
            let q = l.queue(0);
            for k in [q.head, q.tail] {
                kv.insert(k, store.view(k).val);
            }
            let dummy = Ptr::decode(&store.view(q.head).val);
            kv.insert(NodeArena::next_key(dummy), store.view(NodeArena::next_key(dummy)).val);
        }
        let mut c = DsClient::new(
            2,
            DsWorkload::Queues(vec![l.queue(0)]),
            l.arena(0),
            2,
            11,
            Arc::clone(&stats),
        );
        let mut steps = 0;
        while let Some(op) = c.next_op(0) {
            steps += 1;
            assert!(steps < 10_000);
            let output = match op {
                Op::Read { key } | Op::Acquire { key } => {
                    OpOutput::Value(kv.get(&key).cloned().unwrap_or(Val::EMPTY))
                }
                Op::Write { key, val } | Op::Release { key, val } => {
                    kv.insert(key, val);
                    OpOutput::Done
                }
                Op::CasWeak { key, expect, new } | Op::CasStrong { key, expect, new } => {
                    let cur = kv.get(&key).cloned().unwrap_or(Val::EMPTY);
                    if cur == expect {
                        kv.insert(key, new);
                        OpOutput::Cas { ok: true, observed: cur }
                    } else {
                        OpOutput::Cas { ok: false, observed: cur }
                    }
                }
                Op::Faa { .. } => unreachable!(),
            };
            c.on_completion(&Completion {
                op_id: kite_common::OpId::new(kite_common::SessionId::new(kite_common::NodeId(0), 0), 0),
                op: Op::Read { key: Key(0) },
                output,
                invoked_at: 0,
                completed_at: 0,
            });
        }
        assert!(c.finished());
        assert_eq!(stats.pairs.get(), 2);
        assert_eq!(stats.empty_pops.get(), 0);
        assert_eq!(stats.torn_objects.get(), 0);
    }
}
