//! One fault-schedule runner for the simulator's fault suites. A [`Case`]
//! is a victim node, one script per session and a schedule of [`Event`]s,
//! drawn from a [`Src`] (so a failing case shrinks in events and ops) or
//! written as a literal. An event fires once its count of ops has completed
//! since the previous one fired, or once nothing has completed for
//! [`STALL_NS`] (each [`Fired`] record says which): a case of a few ops per
//! session finishes in under a millisecond of virtual time, so a fault
//! triggered by time lands on an idle cluster. [`apply`] is the one place a
//! [`Fault`] becomes a call on the simulator.

use std::sync::Arc;

use kite::api::Op;
use kite::{ProtocolMode, SessionDriver, SimCluster};
use kite_common::{ClusterConfig, Key, NodeId, Val};
use kite_simnet::SimCfg;
use kite_verify::check::Src;
use kite_verify::checker::check_linearizable_per_key;
use kite_verify::{check_rc, History, OpKind};

use super::{recording_hook, rmw_bases};

/// Virtual ns a schedule waits for a completion before it fires anyway.
pub const STALL_NS: u64 = 5_000_000;

/// A fault on the case's nodes. `Crash` and `Restart` hit the case's
/// victim; `Loss` is a percentage, `Delay` µs and `Sleep` ms, on a directed
/// link or a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Fault {
    Isolate(u8),
    Partition(u8, u8),
    Heal(u8, u8),
    HealAll,
    Loss(u8, u8, u8),
    Delay(u8, u8, u16),
    Sleep(u8, u8),
    Crash,
    Restart,
}

/// `(after, fault)`: the fault fires once `after` more ops have completed.
pub type Event = (u64, Fault);

/// One run's inputs: the cluster (its `nodes` and `sessions_per_node()`
/// size the run; a drawn case is `ClusterConfig::small()`'s 3 nodes of 2
/// sessions), the simulator's seed, the node `Crash` and `Restart` hit (it
/// must run no sessions if the schedule holds either), one script per
/// session by `global_idx` (values written unique per key and non-zero,
/// FAAs by 1 on one key, no key ≥ 300) and the schedule.
#[derive(Clone, Debug)]
#[allow(missing_docs)]
pub struct Case {
    pub cfg: ClusterConfig,
    pub seed: u64,
    pub victim: u8,
    pub scripts: Vec<Vec<Op>>,
    pub events: Vec<Event>,
}

impl Case {
    /// A case drawn from `src`: the §4.3 ablations, up to 8 ops per session
    /// and 6 events; `Restart` only if `restarts`.
    pub fn draw(src: &mut Src, restarts: bool) -> Case {
        let victim = src.below(3) as usize;
        let cfg = ClusterConfig::small().keys(512).release_timeout_ns(200_000);
        let cfg = cfg.overlap_release(src.bool()).stripped_slow_path(src.bool());
        let seed = src.below(1 << 16);
        let mut script = |s: usize| match s / 2 == victim {
            true => Vec::new(),
            false => (1..).zip(src.vec(0..9, draw_op)).map(|(seq, op)| op(s << 40 | seq)).collect(),
        };
        let scripts = (0..6).map(&mut script).collect();
        let events = src.vec(0..7, |src| (src.below(4), draw_fault(src, restarts)));
        Case { cfg, seed, victim: victim as u8, scripts, events }
    }

    /// Session `s`'s script, closed by a flushing release unless empty: a
    /// relaxed write stays tracked until its session's next release, so a
    /// script ending in one never quiesces beside a crashed node.
    fn script(&self, s: usize) -> Vec<Op> {
        let close = Op::Release { key: Key(300 + s as u64), val: Val::from_u64(1) };
        let ops = &self.scripts[s];
        ops.iter().cloned().chain((!ops.is_empty()).then_some(close)).collect()
    }

    /// The ops a run of this case issues.
    pub fn ops(&self) -> usize {
        (0..self.scripts.len()).map(|s| self.script(s).len()).sum()
    }
}

/// An op, given a tag that makes the value it writes unique.
fn draw_op(src: &mut Src) -> impl Fn(usize) -> Op {
    let (key, kind) = (src.below(3), src.pick(&[2, 2, 1, 1, 4]));
    move |tag| {
        let val = Val::from_u64(tag as u64 + (1 << 40));
        match kind {
            0 => Op::Write { key: Key(key), val },
            1 => Op::Read { key: Key(key) },
            2 => Op::Release { key: Key(100 + key), val },
            3 => Op::Acquire { key: Key(100 + key) },
            _ => Op::Faa { key: Key(200), delta: 1 },
        }
    }
}

fn draw_fault(src: &mut Src, restarts: bool) -> Fault {
    let a = src.below(3) as u8;
    let b = (a + 1 + src.below(2) as u8) % 3;
    match src.pick(&[2, 1, 1, 1, 1, 1, 1, 1, 2 * restarts as u64]) {
        0 => Fault::Isolate(a),
        1 => Fault::Partition(a, b),
        2 => Fault::Heal(a, b),
        3 => Fault::HealAll,
        4 => Fault::Loss(a, b, src.range(10..90) as u8),
        5 => Fault::Delay(a, b, src.range(1..500) as u16),
        6 => Fault::Sleep(a, src.range(1..6) as u8),
        7 => Fault::Crash,
        _ => Fault::Restart,
    }
}

/// How an event fired: the virtual time, the ops still outstanding, and
/// whether its count of completions was reached (`false`: the run stalled
/// or went idle short of it, and the event fired anyway).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct Fired {
    pub at: u64,
    pub outstanding: u64,
    pub on_count: bool,
}

/// A finished run: the healed cluster, every completion, and how each event
/// fired, then the closing heal.
#[allow(missing_docs)]
pub struct Outcome {
    pub sc: SimCluster,
    pub history: Arc<History>,
    pub fired: Vec<Fired>,
}

/// Apply `case`'s schedule to a fresh cluster, keep the last faults until
/// every op completes or the run stalls, heal every link and quiesce.
pub fn run(case: &Case) -> Outcome {
    run_with(case, |_, _| {})
}

/// [`run`], calling `at_event` with each fault and the cluster just before
/// the fault lands.
fn run_with(case: &Case, mut at_event: impl FnMut(Fault, &SimCluster)) -> Outcome {
    let (history, total, spn) =
        (Arc::new(History::new()), case.ops(), case.cfg.sessions_per_node());
    let mut sc = SimCluster::build(
        case.cfg.clone(),
        ProtocolMode::Kite,
        SimCfg { seed: case.seed, ..Default::default() },
        |sid| {
            let ops = case.script(sid.global_idx(spn));
            SessionDriver::Script(Box::new(move |seq| ops.get(seq as usize).cloned()))
        },
        Some(recording_hook(Arc::clone(&history))),
    );
    let mut fired = Vec::new();
    for &(after, fault) in case.events.iter().chain([&(total as u64, Fault::HealAll)]) {
        let target = (history.len() + after as usize).min(total);
        let mut last = (history.len(), sc.now());
        while history.len() < target && sc.now() < last.1 + STALL_NS && sc.sim.step() {
            last = if history.len() > last.0 { (history.len(), sc.now()) } else { last };
        }
        let (outstanding, on_count) = ((total - history.len()) as u64, history.len() >= target);
        fired.push(Fired { at: sc.now(), outstanding, on_count });
        at_event(fault, &sc);
        apply(&mut sc, case.victim, fault);
    }
    assert!(sc.run_until_quiesce(60_000_000_000), "the healed cluster quiesces");
    Outcome { sc, history, fired }
}

/// Land `fault` on `sc` now; `Crash` and `Restart` hit `victim`. The one
/// place a fault suite's fault becomes a call on the simulator.
pub fn apply(sc: &mut SimCluster, victim: u8, fault: Fault) {
    let (n, nodes) = (NodeId, sc.config().nodes as u8);
    let pairs = (0..nodes).flat_map(|a| (a + 1..nodes).map(move |b| (a, b)));
    match fault {
        Fault::Isolate(a) => (1..nodes).for_each(|d| sc.sim.partition(n(a), n((a + d) % nodes))),
        Fault::Partition(a, b) => sc.sim.partition(n(a), n(b)),
        Fault::Heal(a, b) => sc.sim.heal(n(a), n(b)),
        Fault::HealAll => pairs.for_each(|(a, b)| sc.sim.heal(n(a), n(b))),
        Fault::Loss(a, b, pct) => sc.sim.set_drop(n(a), n(b), pct as f64 / 100.0),
        Fault::Delay(a, b, us) => sc.sim.set_link_delay(n(a), n(b), us as u64 * 1_000),
        Fault::Sleep(a, ms) => sc.sim.sleep_node(n(a), ms as u64 * 1_000_000),
        Fault::Crash => sc.sim.crash(n(victim)),
        Fault::Restart => sc.restart(n(victim), |_| SessionDriver::Idle),
    }
}

/// Run a literal case, print how each event fired and assert that the first
/// fault hit a running workload.
pub fn literal(case: &Case) -> Outcome {
    literal_with(case, |_, _| {})
}

/// [`literal`], calling `at_event` with each fault and the cluster just
/// before the fault lands (the closing `HealAll` included).
pub fn literal_with(case: &Case, at_event: impl FnMut(Fault, &SimCluster)) -> Outcome {
    let out = run_with(case, at_event);
    let how = |f: &Fired| (f.at, f.outstanding, if f.on_count { "count" } else { "stall" });
    let fired: Vec<_> = out.fired.iter().map(how).collect();
    println!("(ns, ops outstanding, fired on) at {:?}, then at the heal: {fired:?}", case.events);
    assert!(out.fired[0].outstanding >= 1, "the first fault fired after the workload finished");
    out
}

/// Every run's four checks: every op completed, FAAs ran exactly once,
/// the history is RCLin, and the keys only releases and acquires touch
/// are linearizable. A failure names the case's `(overlap_release,
/// stripped_slow_path)`, events and op count.
pub fn judge(case: &Case, out: &Outcome) {
    let (h, combo) = (&out.history, (case.cfg.overlap_release, case.cfg.stripped_slow_path));
    let ctx =
        format!("{combo:?}, {} events {:?}, {} ops", case.events.len(), case.events, case.ops());
    assert_eq!(h.len(), case.ops(), "every op completes: {ctx}");
    let bases = rmw_bases(h);
    assert_eq!(bases, (0..bases.len() as u64).collect::<Vec<_>>(), "double or lost FAA: {ctx}");
    assert_eq!(check_rc(h), Ok(()), "RCLin: {ctx}");
    let sync = History::new();
    for ops in h.keys().into_iter().map(|k| h.for_key(k)) {
        if ops.iter().all(|r| matches!(r.kind, OpKind::Release { .. } | OpKind::Acquire { .. })) {
            ops.into_iter().for_each(|r| sync.record(r));
        }
    }
    assert_eq!(check_linearizable_per_key(&sync), Ok(()), "sync keys not linearizable: {ctx}");
}
