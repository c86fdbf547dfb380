//! **Ablation** — the release ack-gathering time-out (§4.2 "Time-out and
//! Availability", revisited in §8.4).
//!
//! The paper: *"increasing the length of the time-out can affect
//! availability, but decreasing the time-out can only affect performance,
//! as it will only mean machines go to the slow path more often"* — i.e.
//! the knob trades a stall bound against spurious slow paths, and safety
//! never depends on it.
//!
//! Two sweeps:
//!
//! 1. **Healthy network.** Time-outs from well below one round-trip to
//!    milliseconds. Too-small values misclassify in-flight acks as
//!    delinquency (spurious slow releases + epoch bumps) and shave
//!    throughput; correctness is unaffected.
//!
//! 2. **Replica outage.** One replica sleeps; the time-out bounds how long
//!    releases stall before the DM-set is published and survivors resume.
//!    The *dip duration* after the sleep tracks the time-out length; the
//!    steady intermediate throughput does not (the suspicion flag makes
//!    later releases go slow immediately instead of re-paying it).
//!
//! Usage: `cargo run -p kite-bench --release --bin ablation_timeout [quick]`

use kite::{ProtocolMode, SimCluster};
use kite_bench::{fmt_mreqs, paper_sim, Detection, ShapeCheck, Table, RUN_NS, WARMUP_NS};
use kite_common::{ClusterConfig, NodeId};
use kite_workloads::{measure, MixCfg};

const MS: u64 = 1_000_000;
const US: u64 = 1_000;

/// Healthy-network run: returns `(mreqs, slow_releases, epoch_bumps)`.
fn run_healthy(timeout_ns: u64, quick: bool) -> (f64, u64, u64) {
    let cfg = ClusterConfig::default()
        .nodes(5)
        .workers_per_node(2)
        .sessions_per_worker(16)
        .keys(1 << 14)
        .release_timeout_ns(timeout_ns);
    let keys = cfg.keys as u64;
    let mix = MixCfg { write_ratio: 0.2, sync_frac: 0.1, rmw_frac: 0.0, keys, val_len: 32, skew_theta: 0.0 };
    let run_ns = if quick { RUN_NS / 2 } else { RUN_NS };

    let drivers = mix.drivers(&cfg, 0x71A);
    let mut sc = SimCluster::build(cfg, ProtocolMode::Kite, paper_sim(61), drivers, None);
    let mreqs = measure(&mut sc, WARMUP_NS, run_ns).mreqs;
    let slow: u64 = (0..5).map(|n| sc.counters(NodeId(n)).slow_releases.get()).sum();
    let bumps: u64 = (0..5).map(|n| sc.counters(NodeId(n)).epoch_bumps.get()).sum();
    (mreqs, slow, bumps)
}

/// Outage run: a replica sleeps `sleep_dur`; returns `(dip_ms, mid_mreqs,
/// post_mreqs, slow_releases, epoch_bumps, detection)` where `dip_ms` is
/// how long after the sleep the survivors' aggregate throughput stayed
/// below 70% of the pre-sleep average.
fn run_outage(timeout_ns: u64, quick: bool) -> (u64, f64, f64, u64, u64, Detection) {
    let (sleep_at, sleep_dur, total) =
        if quick { (30 * MS, 90 * MS, 180 * MS) } else { (50 * MS, 150 * MS, 300 * MS) };
    let sample = 2 * MS;
    let sleeper = NodeId(4);

    let cfg = ClusterConfig::default()
        .nodes(5)
        .workers_per_node(2)
        .sessions_per_worker(8)
        .keys(1 << 14)
        .release_timeout_ns(timeout_ns)
        .retransmit_ns(8_000_000);
    let keys = cfg.keys as u64;
    let mix = MixCfg { write_ratio: 0.05, sync_frac: 0.05, rmw_frac: 0.0, keys, val_len: 32, skew_theta: 0.0 };

    let drivers = mix.drivers(&cfg, 0x0F1);
    let mut sc = SimCluster::build(cfg.clone(), ProtocolMode::Kite, paper_sim(62), drivers, None);

    let mut prev: Vec<u64> = vec![0; cfg.nodes];
    let mut detection = None;
    let mut timeline: Vec<(u64, f64)> = Vec::new(); // (end time, total mreqs)
    let mut t = 0;
    while t < total {
        if detection.is_none() && t >= sleep_at {
            sc.sim.sleep_node(sleeper, sleep_dur);
            detection = Some(Detection::new(&sc, sleeper));
        }
        match detection.as_mut() {
            Some(d) => d.run_for(&mut sc, sample),
            None => sc.run_for(sample),
        }
        t += sample;
        let cur: Vec<u64> = (0..cfg.nodes).map(|n| sc.node_completed(NodeId(n as u8))).collect();
        let d: u64 = cur.iter().zip(&prev).map(|(c, p)| c - p).sum();
        prev = cur;
        timeline.push((t, d as f64 / (sample as f64 / 1e9) / 1e6));
    }

    let avg = |from: u64, to: u64| {
        let rows: Vec<f64> =
            timeline.iter().filter(|r| r.0 > from && r.0 <= to).map(|r| r.1).collect();
        rows.iter().sum::<f64>() / rows.len().max(1) as f64
    };
    let pre = avg(0, sleep_at);
    // Dip: consecutive samples after the sleep below 70% of pre.
    let mut dip_ns = 0;
    for r in timeline.iter().filter(|r| r.0 > sleep_at) {
        if r.1 < pre * 0.7 {
            dip_ns = r.0 - sleep_at;
        } else {
            break;
        }
    }
    let settle = 40 * MS;
    let mid = avg(sleep_at + settle, sleep_at + sleep_dur);
    let post = avg(sleep_at + sleep_dur + settle, total);
    let slow: u64 = (0..5).map(|n| sc.counters(NodeId(n)).slow_releases.get()).sum();
    let bumps: u64 = (0..5).map(|n| sc.counters(NodeId(n)).epoch_bumps.get()).sum();
    (dip_ns / MS, mid, post, slow, bumps, detection.expect("the sleep began"))
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick");

    println!("Ablation — release time-out (§8.4 trade-off)");
    println!();
    println!("Sweep 1: healthy network (20% writes, 10% sync)");
    println!();
    let healthy_timeouts: &[(u64, &str)] = &[
        (10 * US, "10µs"),
        (50 * US, "50µs"),
        (200 * US, "200µs"),
        (MS, "1ms"),
        (5 * MS, "5ms"),
    ];
    let mut t = Table::new(vec!["timeout", "mreqs", "slow-releases", "epoch bumps"]);
    let mut healthy = Vec::new();
    for &(ns, label) in healthy_timeouts {
        let (m, slow, bumps) = run_healthy(ns, quick);
        healthy.push((ns, m, slow, bumps));
        t.row(vec![label.to_string(), fmt_mreqs(m), format!("{slow}"), format!("{bumps}")]);
        eprintln!("  healthy timeout {label} …");
    }
    t.print();
    println!();

    println!("Sweep 2: one replica sleeps (5% writes, 5% sync)");
    println!();
    let outage_timeouts: &[(u64, &str)] =
        &[(200 * US, "200µs"), (MS, "1ms"), (5 * MS, "5ms"), (20 * MS, "20ms")];
    // detect/bump: from the sleep's onset to the first slow-path release
    // and to the sleeper's first epoch bump.
    let mut t = Table::new(vec![
        "timeout", "dip(ms)", "mid mreqs", "post mreqs", "slow-rel", "bumps", "detect(ms)",
        "bump(ms)",
    ]);
    let mut outage = Vec::new();
    for &(ns, label) in outage_timeouts {
        let (dip, mid, post, slow, bumps, d) = run_outage(ns, quick);
        outage.push((ns, dip, mid, post, slow, bumps));
        t.row(vec![
            label.to_string(),
            format!("{dip}"),
            fmt_mreqs(mid),
            fmt_mreqs(post),
            format!("{slow}"),
            format!("{bumps}"),
            Detection::ms(d.slow_release),
            Detection::ms(d.epoch_bump),
        ]);
        eprintln!("  outage timeout {label} …");
    }
    t.print();
    println!();

    let tiny = &healthy[0];
    // §8.4 overprovisions to ~1 ms "such that it never gets triggered";
    // 200µs sits on the queueing tail's boundary and may trip occasionally
    // (visible in the table) — exactly why the paper overprovisions.
    let overprovisioned: Vec<_> = healthy.iter().filter(|h| h.0 >= MS).collect();
    let (short_dip, long_dip) = (outage.first().unwrap().1, outage.last().unwrap().1);
    ShapeCheck::assert_all(&[
        ShapeCheck {
            name: "a too-small time-out causes spurious slow paths (§8.4)",
            holds: tiny.2 > 0,
            detail: format!("at 10µs: {} slow-releases, {} epoch bumps", tiny.2, tiny.3),
        },
        ShapeCheck {
            name: "overprovisioned time-outs never trigger in common operation (§8.4)",
            holds: overprovisioned.iter().all(|h| h.2 == 0 && h.3 == 0),
            detail: "≥1ms (the paper's setting): zero slow-releases and epoch bumps".into(),
        },
        ShapeCheck {
            name: "decreasing the time-out only affects performance, not liveness",
            holds: tiny.1 > 0.0 && tiny.1 < overprovisioned.last().unwrap().1 * 1.05,
            detail: format!(
                "10µs: {:.3} mreqs vs 5ms: {:.3} mreqs — still live",
                tiny.1,
                overprovisioned.last().unwrap().1
            ),
        },
        ShapeCheck {
            name: "the post-sleep dip grows with the time-out (availability knob)",
            holds: long_dip >= short_dip,
            detail: format!("dip {short_dip}ms at 200µs vs {long_dip}ms at 20ms"),
        },
        ShapeCheck {
            name: "survivors stay available during the outage at every time-out",
            holds: outage.iter().all(|o| o.2 > 0.0),
            detail: "intermediate throughput positive for all time-outs".into(),
        },
        ShapeCheck {
            name: "throughput recovers after the outage at every time-out",
            holds: outage.iter().all(|o| o.3 > o.2 * 0.8),
            detail: format!(
                "post-sleep > 0.8 × intermediate; post/mid: {}",
                (outage_timeouts.iter().zip(&outage))
                    .map(|(&(_, label), o)| format!("{label} {:.2}", o.3 / o.2))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        },
    ]);
}
