//! **Ablation** — the weak CAS flavor (§6.1 / §8.3).
//!
//! Kite's API offers two Compare-&-Swap variants: a *weak* CAS that
//! completes locally when the comparison already fails against the local
//! replica (no network round), and a *strong* CAS that always checks remote
//! replicas. §8.3 leverages the weak flavor "in order to mitigate the
//! conflict overheads" of the lock-free data structures.
//!
//! This harness runs the contended Treiber-stack workload (the §8.3 setup)
//! twice — once with the machines' weak CASes as written, once with every
//! weak CAS rewritten to a strong CAS — and reports throughput and the
//! conflict-retry bill. The uncontended (per-session private stacks) run is
//! included as a control: with no conflicts, weak and strong CAS behave
//! identically, so the flavors should tie.
//!
//! Usage: `cargo run -p kite-bench --release --bin ablation_cas [quick]`

use std::sync::Arc;

use kite::session::SessionDriver;
use kite::{ProtocolMode, SimCluster};
use kite_bench::{paper_sim, LastCompletion, ShapeCheck, Table};
use kite_common::ClusterConfig;
use kite_lockfree::driver::DsLayout;
use kite_lockfree::{DsClient, DsStats, DsWorkload};

/// One Treiber-stack run; returns `(mops, retries, empty_pops)`.
fn run_ts(fields: usize, contended: bool, strong: bool, quick: bool) -> (f64, u64, u64) {
    let cfg = ClusterConfig::default()
        .nodes(5)
        .workers_per_node(1)
        .sessions_per_worker(if quick { 2 } else { 4 });
    let clients = cfg.total_sessions();
    let pairs: u64 = if quick { 40 } else { 120 };
    // Contended: a handful of shared stacks (heavier conflicts than §8.3's
    // 1.25 structures/session, to give the ablation something to show).
    // Control: one private stack per session.
    let structures = if contended { (clients / 4).max(2) } else { clients };
    let layout =
        DsLayout { structures, fields, clients, nodes_per_client: pairs + 8 };
    let cfg = cfg.keys(layout.keys_needed() + 1024);
    let stats = Arc::new(DsStats::default());
    let stats2 = Arc::clone(&stats);
    let spn = cfg.sessions_per_node();
    let last = LastCompletion::default();

    let mut sc = SimCluster::build(
        cfg,
        ProtocolMode::Kite,
        paper_sim(71),
        move |sid| {
            let client = sid.global_idx(spn);
            let workload = DsWorkload::Stacks(if contended {
                (0..layout.structures).map(|i| layout.stack(i)).collect()
            } else {
                vec![layout.stack(client)]
            });
            SessionDriver::Interactive(Box::new(
                DsClient::new(
                    client as u64,
                    workload,
                    layout.arena(client),
                    pairs,
                    0xCA5 + client as u64,
                    Arc::clone(&stats2),
                )
                .strong_cas(strong),
            ))
        },
        Some(last.hook()),
    );
    assert!(sc.run_until_quiesce(600_000_000_000), "run must finish");
    assert_eq!(stats.torn_objects.get(), 0, "§8.3 object consistency");
    assert_eq!(stats.empty_pops.get(), 0, "§8.3: pops never find the stack empty");

    let mops = (stats.pairs.get() * 2) as f64 / (last.at() as f64 / 1e9) / 1e6;
    (mops, stats.retries.get(), stats.empty_pops.get())
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    println!("Ablation — weak vs strong CAS on the Treiber stack (§8.3)");
    println!("(mops = million DS ops/s of virtual time)");
    println!();

    let mut table = Table::new(vec!["workload", "CAS", "mops", "conflict retries"]);
    let mut results = Vec::new();
    for &(fields, contended, label) in
        &[(4, true, "TS-4 shared"), (32, true, "TS-32 shared"), (4, false, "TS-4 private")]
    {
        for &strong in &[false, true] {
            eprintln!("  running {label} ({})…", if strong { "strong" } else { "weak" });
            let (mops, retries, _) = run_ts(fields, contended, strong, quick);
            results.push((label, strong, mops, retries));
            table.row(vec![
                label.to_string(),
                if strong { "strong" } else { "weak" }.to_string(),
                format!("{mops:.4}"),
                format!("{retries}"),
            ]);
        }
    }
    table.print();
    println!();

    let get = |label: &str, strong: bool| {
        results.iter().find(|(l, s, _, _)| *l == label && *s == strong).unwrap()
    };
    let (_, _, weak4, weak4_retries) = get("TS-4 shared", false);
    let (_, _, strong4, strong4_retries) = get("TS-4 shared", true);
    let (_, _, weak32, _) = get("TS-32 shared", false);
    let (_, _, strong32, _) = get("TS-32 shared", true);
    let (_, _, weak_priv, weak_priv_retries) = get("TS-4 private", false);
    let (_, _, strong_priv, _) = get("TS-4 private", true);

    ShapeCheck::assert_all(&[
        ShapeCheck {
            name: "weak CAS absorbs conflicts cheaply: faster under contention (§8.3)",
            holds: weak4 > strong4 && weak32 > strong32,
            detail: format!(
                "TS-4 {weak4:.4} vs {strong4:.4}; TS-32 {weak32:.4} vs {strong32:.4} mops"
            ),
        },
        ShapeCheck {
            // The retry *counts* are similar (the conflicts are real either
            // way); the weak flavor makes each retry nearly free.
            name: "contention is real in both flavors (retries > 0)",
            holds: *weak4_retries > 0 && *strong4_retries > 0,
            detail: format!("weak {weak4_retries} vs strong {strong4_retries} retries"),
        },
        ShapeCheck {
            name: "control: without conflicts the flavors tie",
            holds: (weak_priv - strong_priv).abs() < weak_priv * 0.1
                && *weak_priv_retries == 0,
            detail: format!(
                "private stacks: weak {weak_priv:.4} vs strong {strong_priv:.4} mops, {weak_priv_retries} retries"
            ),
        },
    ]);
}
