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

use kite::CompletionHook;
use kite_common::ClusterConfig;
use kite_simnet::SimCfg;

/// The standard simulated deployment for the figures: 5 replicas (the
/// paper's testbed size), 2 workers each, 8 sessions per worker.
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
