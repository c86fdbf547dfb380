//! **Figure 9** — Failure study: a replica sleeps for 400 ms (§8.4).
//!
//! The workload is 5% writes / 5% synchronization. One replica sleeps at
//! t = 100 ms and wakes at t = 500 ms. The paper reports:
//!
//! * Kite remains **available** throughout;
//! * transition dips are brief (tens of ms);
//! * during the sleep, surviving replicas run *faster* per node (they
//!   inherit the sleeper's network/CPU headroom) while aggregate throughput
//!   dips slightly;
//! * on wake-up, the slow path (epoch bump + per-key refresh) clears
//!   quickly because each key is refreshed at most once per epoch.
//!
//! Prints the 5 ms-bucketed throughput timeline (total + sleeper +
//! a healthy replica), then the slow-path counters.
//!
//! Usage: `cargo run -p kite-bench --release --bin fig9_failure [quick]`

use kite::{ProtocolMode, SimCluster};
use kite_bench::{paper_sim, Detection, ShapeCheck, Table};
use kite_common::{ClusterConfig, NodeId};
use kite_workloads::{mreqs, MixCfg};

const MS: u64 = 1_000_000;

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    // Timeline compressed 2× in quick mode.
    let (sleep_at, sleep_dur, total) =
        if quick { (30 * MS, 120 * MS, 220 * MS) } else { (100 * MS, 400 * MS, 700 * MS) };
    let sample = 5 * MS;
    let sleeper = NodeId(4);

    // The release timeout is overprovisioned (§8.4: "such that it never
    // gets triggered while in common operation") — here 5 ms, counted from
    // each write's quorum. Healthy replicas can still deem each other
    // delinquent around the wake-up: with this setup at 4 sessions per
    // worker (seed 41, 15 ms of warm-up, then a sleep and 50 ms more), a
    // 30 ms sleep bumps no healthy node's epoch, but a 60 ms one bumps three
    // of the four twice each (~16 100 slow-path accesses each). At this
    // bin's 8 sessions per worker neither does.
    let cfg = ClusterConfig::default()
        .nodes(5)
        .workers_per_node(2)
        .sessions_per_worker(8)
        .keys(1 << 14)
        .release_timeout_ns(5_000_000)
        .retransmit_ns(8_000_000); // patient retries: no retransmit storms
                                   // while the waking replica drains
    let keys = cfg.keys as u64;
    let mix = MixCfg { write_ratio: 0.05, sync_frac: 0.05, rmw_frac: 0.0, keys, val_len: 32, skew_theta: 0.0 };

    let drivers = mix.drivers(&cfg, 0xF19);
    let mut sc = SimCluster::build(cfg.clone(), ProtocolMode::Kite, paper_sim(41), drivers, None);

    println!("Figure 9: throughput timeline with a replica sleeping {} ms", sleep_dur / MS);
    println!("(mreqs of virtual time; sleeper = {sleeper}, sampled every {} ms)", sample / MS);
    println!();

    let mut table = Table::new(vec!["t(ms)", "total", "sleeper", "healthy(n0)"]);
    let mut prev: Vec<u64> = vec![0; cfg.nodes];
    let mut detection = None;
    let mut timeline: Vec<(u64, f64, f64, f64)> = Vec::new();

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
        let cur: Vec<u64> =
            (0..cfg.nodes).map(|n| sc.node_completed(NodeId(n as u8))).collect();
        let delta: Vec<u64> = cur.iter().zip(&prev).map(|(c, p)| c - p).collect();
        prev = cur;
        let to_mreqs = |d: u64| mreqs(d, sample);
        let row = (
            t / MS,
            to_mreqs(delta.iter().sum()),
            to_mreqs(delta[sleeper.idx()]),
            to_mreqs(delta[0]),
        );
        timeline.push(row);
        // print a decimated timeline (every 4th sample) to keep output tight
        if (t / sample).is_multiple_of(4) {
            table.row(vec![
                format!("{}", row.0),
                format!("{:.3}", row.1),
                format!("{:.3}", row.2),
                format!("{:.3}", row.3),
            ]);
        }
    }
    table.print();
    println!();

    // Phase aggregates (the paper's pre-sleep / intermediate / post-sleep).
    let phase = |from: u64, to: u64| {
        let rows: Vec<&(u64, f64, f64, f64)> =
            timeline.iter().filter(|r| r.0 * MS > from && r.0 * MS <= to).collect();
        let avg = |f: fn(&(u64, f64, f64, f64)) -> f64| {
            rows.iter().map(|r| f(r)).sum::<f64>() / rows.len().max(1) as f64
        };
        (avg(|r| r.1), avg(|r| r.2), avg(|r| r.3))
    };
    // The paper's transitioning periods are "tens of milliseconds" (§8.4);
    // allow that before averaging the recovered phase.
    let settle = 60 * MS;
    let pre = phase(0, sleep_at);
    let mid = phase(sleep_at + settle, sleep_at + sleep_dur);
    let post = phase(sleep_at + sleep_dur + settle, total);

    println!("phase averages (total / sleeper / healthy):");
    println!("  pre-sleep    {:.3} / {:.3} / {:.3}", pre.0, pre.1, pre.2);
    println!("  intermediate {:.3} / {:.3} / {:.3}", mid.0, mid.1, mid.2);
    println!("  post-sleep   {:.3} / {:.3} / {:.3}", post.0, post.1, post.2);

    let slow_paths: u64 =
        (0..cfg.nodes).map(|n| sc.counters(NodeId(n as u8)).slow_path_accesses.get()).sum();
    let slow_releases: u64 =
        (0..cfg.nodes).map(|n| sc.counters(NodeId(n as u8)).slow_releases.get()).sum();
    let epoch_bumps: u64 =
        (0..cfg.nodes).map(|n| sc.counters(NodeId(n as u8)).epoch_bumps.get()).sum();
    println!();
    println!("slow-release barriers: {slow_releases}, epoch bumps: {epoch_bumps}, slow-path accesses: {slow_paths}");
    let d = detection.expect("the sleep began");
    println!(
        "after the sleep's onset: first slow-path release {} ms, sleeper's first epoch bump {} ms",
        Detection::ms(d.slow_release),
        Detection::ms(d.epoch_bump)
    );
    println!("per-node [fast-rel/slow-rel/epoch-bumps/slow-accesses]:");
    for n in 0..cfg.nodes {
        let c = sc.counters(NodeId(n as u8));
        println!(
            "  n{n}: {} / {} / {} / {}",
            c.fast_releases.get(),
            c.slow_releases.get(),
            c.epoch_bumps.get(),
            c.slow_path_accesses.get()
        );
    }
    println!();

    ShapeCheck::assert_all(&[
        ShapeCheck {
            name: "Kite remains available throughout (§8.4)",
            holds: timeline.iter().all(|r| r.1 > 0.0),
            detail: "total throughput never reaches zero".into(),
        },
        ShapeCheck {
            name: "sleeper contributes ~nothing while asleep",
            holds: mid.1 < pre.1 * 0.1,
            detail: format!("sleeper {:.3} mid vs {:.3} pre", mid.1, pre.1),
        },
        ShapeCheck {
            name: "healthy replicas speed up during the sleep (§8.4)",
            holds: mid.2 > pre.2 * 1.02,
            detail: format!("healthy node: {:.3} mid vs {:.3} pre", mid.2, pre.2),
        },
        ShapeCheck {
            name: "post-sleep throughput recovers to pre-sleep level",
            holds: post.0 > pre.0 * 0.9,
            detail: format!("post {:.3} vs pre {:.3}", post.0, pre.0),
        },
        ShapeCheck {
            name: "the slow path actually ran (delinquency + epochs)",
            holds: slow_releases > 0 && epoch_bumps > 0,
            detail: format!("{slow_releases} slow-releases, {epoch_bumps} epoch bumps"),
        },
    ]);
}
