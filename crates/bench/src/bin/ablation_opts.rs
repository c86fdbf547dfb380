//! **Ablation** — what the §4.3/§6.3 protocol optimizations buy.
//!
//! Three measurements, each toggling one optimization the paper describes,
//! everything else fixed:
//!
//! 1. **Overlapping a release with waiting** (§4.3): the release's
//!    LLC-read round — and an RMW's propose phase — normally run while the
//!    barrier is still gathering acks for prior writes. Ablated, round 1
//!    starts only after the barrier resolves, adding one round-trip to
//!    every release that has writes in flight. Reported as release/RMW
//!    latency (p50/p99) and throughput on a release-heavy mix.
//!
//! 2. **Slow-path stripping** (§4.3): slow-path reads skip ABD's
//!    write-back round and slow-path writes complete without waiting for
//!    value-round acks. Ablated, the slow path runs full linearizable ABD.
//!    Measured on a forced slow-path phase (post-epoch-bump first-touch
//!    accesses): mean relaxed-op latency during recovery.
//!
//! 3. **Opportunistic batching** (§6.3): by default every message a worker
//!    step produces for one destination shares an envelope. Ablated with
//!    the simulator's `max_batch` cap (1 = every message pays its own
//!    envelope overhead). Reported as throughput.
//!
//! Usage: `cargo run -p kite-bench --release --bin ablation_opts [quick]`

use std::sync::{Arc, Mutex};

use kite::api::{CompletionHook, Op};
use kite::session::SessionDriver;
use kite::{ProtocolMode, SimCluster};
use kite_bench::{fmt_mreqs, paper_cluster, paper_sim, ShapeCheck, Table, RUN_NS, WARMUP_NS};
use kite_common::{ClusterConfig, Key, NodeId, SessionId, Val};
use kite_workloads::{measure, run_kite_mix, MixCfg};

const MS: u64 = 1_000_000;

/// Exact latency samples for one op class (the stats `Histogram` buckets
/// by powers of two — too coarse for single-round-trip deltas).
#[derive(Default)]
struct LatSink(Mutex<Vec<u64>>);

impl LatSink {
    fn record(&self, v: u64) {
        self.0.lock().unwrap().push(v);
    }

    /// Quantile in microseconds.
    fn q_us(&self, q: f64) -> f64 {
        let mut v = self.0.lock().unwrap().clone();
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_unstable();
        let i = ((v.len() - 1) as f64 * q).round() as usize;
        v[i] as f64 / 1e3
    }

    fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }
}

/// Latency samples per op class, filled by a completion hook.
#[derive(Default)]
struct Lats {
    release: LatSink,
    rmw: LatSink,
    read: LatSink,
    write: LatSink,
}

/// Record latencies for ops invoked at/after `after_ns` whose key is at
/// least `key_floor` (both filters select the measured phase of a run).
fn latency_hook(lats: Arc<Lats>, after_ns: u64, key_floor: u64) -> CompletionHook {
    Arc::new(move |c| {
        if c.invoked_at < after_ns || c.op.key().0 < key_floor {
            return;
        }
        let lat = c.completed_at.saturating_sub(c.invoked_at);
        match c.op {
            Op::Release { .. } => lats.release.record(lat),
            Op::Faa { .. } | Op::CasWeak { .. } | Op::CasStrong { .. } => lats.rmw.record(lat),
            Op::Read { .. } => lats.read.record(lat),
            Op::Write { .. } => lats.write.record(lat),
            _ => {}
        }
    })
}

/// Part 1: release-heavy mix, overlap on/off. Returns
/// `(mreqs, release p50, release p99, rmw p50)` in µs.
fn run_overlap(overlap: bool, quick: bool) -> (f64, f64, f64, f64) {
    // Unsaturated deployment: few sessions, so releases are latency-bound
    // and the overlapped round-trip is visible (at saturation, queueing
    // dominates and the ablation only shows up as noise).
    let cfg = paper_cluster()
        .workers_per_node(1)
        .sessions_per_worker(2)
        .overlap_release(overlap);
    let keys = cfg.keys as u64;
    // Plenty of releases *behind relaxed writes* — the case the overlap
    // optimization targets — plus some RMWs for the propose-phase half.
    let mix = MixCfg { write_ratio: 0.4, sync_frac: 0.3, rmw_frac: 0.05, keys, val_len: 32, skew_theta: 0.0 };
    let lats = Arc::new(Lats::default());
    let run_ns = if quick { RUN_NS / 2 } else { RUN_NS };

    let mut sc = SimCluster::build(
        cfg.clone(),
        ProtocolMode::Kite,
        paper_sim(51),
        mix.drivers(&cfg, 0xAB1),
        Some(latency_hook(Arc::clone(&lats), WARMUP_NS, 0)),
    );
    let mreqs = measure(&mut sc, WARMUP_NS, run_ns).mreqs;
    (mreqs, lats.release.q_us(0.5), lats.release.q_us(0.99), lats.rmw.q_us(0.5))
}

/// Part 2: force a slow-path recovery phase and measure first-touch relaxed
/// latency with the stripped vs full-ABD slow path. Returns
/// `(slow accesses, read p50 µs, write p50 µs)`: reads rarely need the
/// full-ABD write-back (the quorum already holds the value), writes always
/// pay its extra ack round.
fn run_slowpath(stripped: bool) -> (u64, f64, f64) {
    let cfg = ClusterConfig::small()
        .keys(1 << 12)
        .release_timeout_ns(200_000)
        .stripped_slow_path(stripped);
    let producer = SessionId::new(NodeId(0), 0);
    let consumer = SessionId::new(NodeId(1), 0);
    let lats = Arc::new(Lats::default());

    let mut sc = SimCluster::build(
        cfg,
        ProtocolMode::Kite,
        paper_sim(52),
        |sid| {
            if sid == producer {
                SessionDriver::Script(Box::new(|seq| match seq {
                    0 => Some(Op::Write { key: Key(1), val: Val::from_u64(1) }),
                    1 => Some(Op::Release { key: Key(2), val: Val::from_u64(1) }),
                    _ => None,
                }))
            } else if sid == consumer {
                SessionDriver::Script(Box::new(|seq| match seq {
                    // Poll until delinquency discovery...
                    n if n < 40 => Some(if n % 2 == 0 {
                        Op::Acquire { key: Key(2) }
                    } else {
                        Op::Read { key: Key(1) }
                    }),
                    // ...then first-touch a fresh key per op: every access
                    // is out-of-epoch, i.e. a slow-path access.
                    n if n < 1040 => Some(if n % 2 == 0 {
                        Op::Read { key: Key(100 + n) }
                    } else {
                        Op::Write { key: Key(100 + n), val: Val::from_u64(n) }
                    }),
                    _ => None,
                }))
            } else {
                SessionDriver::Idle
            }
        },
        // Measure only the first-touch phase (keys ≥ 100): the poll phase
        // uses keys 1 and 2 and is excluded.
        Some(latency_hook(Arc::clone(&lats), 0, 100)),
    );
    sc.sim.set_drop(NodeId(0), NodeId(1), 1.0);
    sc.run_for(2 * MS);
    sc.sim.heal(NodeId(0), NodeId(1));
    assert!(sc.run_until_quiesce(10_000 * MS), "slow-path run must quiesce");

    let slow = sc.counters(NodeId(1)).slow_path_accesses.get();
    assert!(lats.read.len() >= 400 && lats.write.len() >= 400, "measurement window too small");
    (slow, lats.read.q_us(0.5), lats.write.q_us(0.5))
}

/// Part 3: batching cap sweep. Returns mreqs.
fn run_batching(max_batch: usize, quick: bool) -> f64 {
    let cfg = paper_cluster();
    let keys = cfg.keys as u64;
    let mix = MixCfg::typical(0.2, keys);
    let mut sim = paper_sim(53);
    sim.max_batch = max_batch;
    let run_ns = if quick { RUN_NS / 2 } else { RUN_NS };
    run_kite_mix(cfg, ProtocolMode::Kite, sim, mix, WARMUP_NS, run_ns).mreqs
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick");

    // ---- Part 1: overlap ------------------------------------------------
    println!("Ablation 1 — §4.3 overlap of release round 1 with the barrier wait");
    println!("(40% writes, 30% sync, 5% RMW; latencies in µs of virtual time)");
    println!();
    let (on_m, on_p50, on_p99, on_rmw) = run_overlap(true, quick);
    let (off_m, off_p50, off_p99, off_rmw) = run_overlap(false, quick);
    let mut t = Table::new(vec!["overlap", "mreqs", "rel p50", "rel p99", "rmw p50"]);
    t.row(vec![
        "on".to_string(),
        fmt_mreqs(on_m),
        format!("{on_p50:.1}"),
        format!("{on_p99:.1}"),
        format!("{on_rmw:.1}"),
    ]);
    t.row(vec![
        "off".to_string(),
        fmt_mreqs(off_m),
        format!("{off_p50:.1}"),
        format!("{off_p99:.1}"),
        format!("{off_rmw:.1}"),
    ]);
    t.print();
    println!();

    // ---- Part 2: slow-path stripping -------------------------------------
    println!("Ablation 2 — §4.3 stripped slow path vs full ABD");
    println!("(first-touch relaxed accesses after an epoch bump; µs virtual time)");
    println!();
    let (s_slow, s_read, s_write) = run_slowpath(true);
    let (f_slow, f_read, f_write) = run_slowpath(false);
    let mut t = Table::new(vec!["slow path", "slow accesses", "read p50", "write p50"]);
    t.row(vec![
        "stripped".to_string(),
        format!("{s_slow}"),
        format!("{s_read:.1}"),
        format!("{s_write:.1}"),
    ]);
    t.row(vec![
        "full ABD".to_string(),
        format!("{f_slow}"),
        format!("{f_read:.1}"),
        format!("{f_write:.1}"),
    ]);
    t.print();
    println!();

    // ---- Part 3: batching -------------------------------------------------
    println!("Ablation 3 — §6.3 opportunistic batching (envelope cap sweep)");
    println!();
    let caps: &[(usize, &str)] = &[(0, "unbounded"), (4, "4"), (1, "1 (off)")];
    let mut t = Table::new(vec!["max batch", "mreqs"]);
    let mut batch_series = Vec::new();
    for &(cap, label) in caps {
        let m = run_batching(cap, quick);
        batch_series.push((cap, m));
        t.row(vec![label.to_string(), fmt_mreqs(m)]);
    }
    t.print();
    println!();

    let unbounded = batch_series[0].1;
    let unbatched = batch_series.last().unwrap().1;
    ShapeCheck::assert_all(&[
        ShapeCheck {
            // At p50 the prior writes are often already acked when the
            // release starts (nothing to overlap); the optimization's
            // round-trip shows up in the tail, where the barrier wait is
            // real.
            name: "overlap cuts release tail latency (≥ one round-trip at p99)",
            holds: on_p99 < off_p99 * 0.95 && on_p50 <= off_p50 * 1.05,
            detail: format!(
                "p99 {on_p99:.1}µs overlapped vs {off_p99:.1}µs serialized (p50 {on_p50:.1} vs {off_p50:.1})"
            ),
        },
        ShapeCheck {
            name: "overlap does not hurt throughput",
            holds: on_m >= off_m * 0.98,
            detail: format!("{on_m:.3} vs {off_m:.3} mreqs"),
        },
        ShapeCheck {
            name: "stripped slow path is cheaper than full ABD on writes (§4.3)",
            holds: s_write < f_write * 0.8,
            detail: format!("first-touch write p50 {s_write:.1}µs stripped vs {f_write:.1}µs full"),
        },
        ShapeCheck {
            name: "reads rarely need the write-back either way (quorum holds the value)",
            holds: (s_read - f_read).abs() < s_read.max(f_read) * 0.5,
            detail: format!("first-touch read p50 {s_read:.1}µs vs {f_read:.1}µs"),
        },
        ShapeCheck {
            name: "both slow-path variants actually took the slow path",
            holds: s_slow >= 500 && f_slow >= 500,
            detail: format!("{s_slow} vs {f_slow} slow accesses"),
        },
        ShapeCheck {
            name: "batching has significant impact (§6.3)",
            holds: unbounded > unbatched * 1.1,
            detail: format!("{unbounded:.3} mreqs batched vs {unbatched:.3} unbatched"),
        },
    ]);
}
