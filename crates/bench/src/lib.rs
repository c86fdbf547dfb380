//! # kite-bench
//!
//! Benchmark harnesses reproducing every figure of the Kite paper's
//! evaluation (§8). One binary per figure:
//!
//! | binary | paper artifact | what it prints |
//! |---|---|---|
//! | `fig5_write_ratio` | Figure 5 | throughput vs write ratio: ES, ABD, Paxos, ZAB, Kite(5% sync) |
//! | `fig6_sync_sweep` | Figure 6 | Kite vs ZAB across synchronization/RMW fractions |
//! | `fig7_write_only` | Figure 7 | write-only throughput: Derecho (ord/unord), ZAB, Kite writes/releases/RMWs |
//! | `fig8_datastructures` | Figure 8 | lock-free DS throughput: Kite vs Kite-ideal vs ZAB-ideal |
//! | `fig9_failure` | Figure 9 | throughput timeline across a 400 ms replica sleep |
//!
//! Plus one harness per design-choice ablation, and `ext_skew` (an
//! extension beyond the paper: the same stacks under Zipfian key skew):
//!
//! | binary | design choice | what it prints |
//! |---|---|---|
//! | `ablation_opts` | §4.3 release overlap, §4.3 slow-path stripping, §6.3 batching | latency/throughput with each optimization toggled |
//! | `ablation_timeout` | §8.4 release time-out | spurious-slow-path and outage-dip sweeps |
//! | `ablation_cas` | §6.1 weak CAS | contended Treiber stack, weak vs strong CAS |
//!
//! All harnesses run on the deterministic simulator in **virtual time**
//! (a run is a function of its seed, not of the host): absolute mreqs are
//! not comparable to the paper's 56 Gb-RDMA testbed, but the *shape* — who
//! wins, crossover points, recovery behaviour — is the reproduction target
//! and is asserted where the paper states it. Performance claims are
//! refereed by `benchmark/run.sh`, not by these bins.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kite::{CompletionHook, SimCluster};
use kite_common::{ClusterConfig, NodeId};
use kite_simnet::SimCfg;

/// The standard simulated deployment for the figures: 5 replicas (the
/// paper's testbed size), 2 workers each, 32 sessions per worker.
pub fn paper_cluster() -> ClusterConfig {
    // 2 workers × 32 sessions per node: enough concurrent sessions that
    // multi-round protocols (Paxos: 4 rounds with the acked commit) hide
    // latency the way the paper's 800-sessions-per-node deployment does,
    // and enough offered load that ZAB's leader — not session latency — is
    // its binding constraint (the §8.2 comparison point).
    ClusterConfig::default()
        .nodes(5)
        .workers_per_node(2)
        .sessions_per_worker(32)
        .keys(1 << 16)
}

/// Simulator timing used by all figures (single-switch-datacenter-ish).
pub fn paper_sim(seed: u64) -> SimCfg {
    SimCfg { seed, ..Default::default() }
}

/// Default measurement windows (virtual nanoseconds).
pub const WARMUP_NS: u64 = 2_000_000;
pub const RUN_NS: u64 = 8_000_000;

/// The end of a fixed-work run's measurement window: the virtual time of
/// its last op completion. `SimCluster::now()` after `run_until_quiesce` is
/// not that time — quiescence also waits out the anti-entropy cool-down,
/// and anti-entropy completes no op.
#[derive(Default)]
pub struct LastCompletion(Arc<AtomicU64>);

impl LastCompletion {
    /// A completion hook that keeps the latest `completed_at` it sees.
    pub fn hook(&self) -> CompletionHook {
        let last = Arc::clone(&self.0);
        // Relaxed: a statistic read after the run, publishing nothing else.
        Arc::new(move |c| {
            last.fetch_max(c.completed_at, Ordering::Relaxed);
        })
    }

    /// Virtual nanoseconds of the last completion so far.
    pub fn at(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// How long after a replica's sleep began its effects showed, in virtual
/// ns: the first slow-path release anywhere (the survivors publish the
/// sleeper's delinquency) and the sleeper's first epoch bump (it learns
/// that it was declared delinquent). A healthy node's bump is not counted:
/// it is a spurious declaration, not a detection. A watched run is cut into
/// [`Detection::STEP`] pieces until both have shown; the simulator's
/// trajectory does not depend on how a run is cut, so watching changes
/// nothing it measures.
pub struct Detection {
    onset: u64,
    sleeper: NodeId,
    before: (u64, u64),
    /// Onset to the first slow-path release, once one is seen.
    pub slow_release: Option<u64>,
    /// Onset to the sleeper's first epoch bump, once one is seen.
    pub epoch_bump: Option<u64>,
}

impl Detection {
    /// The resolution of both stamps: each is the end of the step in which
    /// its counter first moved.
    pub const STEP: u64 = 10_000;

    /// Watch `sc` from now, when `sleeper` fell asleep.
    pub fn new(sc: &SimCluster, sleeper: NodeId) -> Self {
        let (onset, before) = (sc.now(), slow_path(sc, sleeper));
        Detection { onset, sleeper, before, slow_release: None, epoch_bump: None }
    }

    /// Run `sc` for `dur_ns`, stamping what first shows within it.
    pub fn run_for(&mut self, sc: &mut SimCluster, dur_ns: u64) {
        let end = sc.now() + dur_ns;
        while sc.now() < end && (self.slow_release.is_none() || self.epoch_bump.is_none()) {
            sc.run_for(Self::STEP.min(end - sc.now()));
            let ((slow, bumps), at) = (slow_path(sc, self.sleeper), sc.now() - self.onset);
            if slow > self.before.0 {
                self.slow_release.get_or_insert(at);
            }
            if bumps > self.before.1 {
                self.epoch_bump.get_or_insert(at);
            }
        }
        sc.run_for(end - sc.now());
    }

    /// A stamp in milliseconds, `-` if it never showed.
    pub fn ms(stamp: Option<u64>) -> String {
        stamp.map_or("-".into(), |ns| format!("{:.2}", ns as f64 / 1e6))
    }
}

/// Slow-path releases so far, summed over the nodes, and `node`'s epoch
/// bumps.
fn slow_path(sc: &SimCluster, node: NodeId) -> (u64, u64) {
    let nodes = (0..sc.config().nodes).map(|n| sc.counters(NodeId(n as u8)));
    (nodes.map(|c| c.slow_releases.get()).sum(), sc.counters(node).epoch_bumps.get())
}

/// Fixed-width table printing for harness output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a throughput cell.
pub fn fmt_mreqs(v: f64) -> String {
    format!("{v:.3}")
}

/// A named shape expectation from the paper, checked by the harnesses and
/// reported alongside the numbers as a PASS/FAIL line.
pub struct ShapeCheck {
    pub name: &'static str,
    pub holds: bool,
    pub detail: String,
}

impl ShapeCheck {
    /// Print every check as a PASS/FAIL line, then exit with status 1 if
    /// any failed: a harness whose numbers lost the paper's shape fails.
    pub fn assert_all(checks: &[ShapeCheck]) {
        let mut failed = false;
        for c in checks {
            let status = if c.holds { "PASS" } else { "FAIL" };
            println!("[{status}] {} — {}", c.name, c.detail);
            failed |= !c.holds;
        }
        if failed {
            eprintln!("error: some paper-shape checks failed (see above)");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["w%", "ES", "Kite"]);
        t.row(vec!["1", "7.650", "5.260"]);
        t.row(vec!["100", "0.960", "0.840"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Kite"));
        assert!(lines[2].ends_with("5.260"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1"]);
    }

    #[test]
    fn paper_cluster_matches_testbed_shape() {
        let c = paper_cluster();
        assert_eq!(c.nodes, 5);
        assert!(c.validate().is_ok());
    }
}
