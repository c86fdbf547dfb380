//! Measurement harness: run a built deployment — Kite, ZAB or Derecho —
//! for warmup + measurement windows and report throughput (mreqs of
//! virtual time), per node and in aggregate — the quantity every figure of
//! §8 plots.

use kite::{ProtocolMode, SimCluster};
use kite_common::stats::ProtoCounters;
use kite_common::{ClusterConfig, NodeId};
use kite_simnet::{Actor, SimCfg};

use crate::mix::MixCfg;

/// Result of one measured run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Aggregate throughput over the measurement window, in million
    /// requests per second (virtual time).
    pub mreqs: f64,
    /// Per-node throughput.
    pub per_node: Vec<f64>,
    /// Requests completed during the window.
    pub completed: u64,
    /// Fast-path local reads during the whole run (diagnostics).
    pub local_reads: u64,
    /// Slow-path accesses during the whole run (should be 0 without
    /// failures; 0 on the baselines, which have no slow path).
    pub slow_path: u64,
    /// Anti-entropy messages sent during the whole run (digests + Merkle
    /// summaries + drill-downs + repair pulls + repair values):
    /// `ae_msgs / total_completed` is the steady-state digest-traffic
    /// figure — it must stay negligible (< 0.01 msgs/op at 0% loss).
    pub ae_msgs: u64,
    /// Requests completed over the whole run (warmup included) — the
    /// denominator matching the whole-run counters above.
    pub total_completed: u64,
}

/// Throughput over a window, in million requests per second of *virtual*
/// time.
pub fn mreqs(completed: u64, window_ns: u64) -> f64 {
    completed as f64 / (window_ns as f64 / 1e9) / 1e6
}

/// Run `sc` for `warmup_ns + run_ns` of virtual time; throughput is
/// measured over the last `run_ns`. The deployment is left as the run left
/// it, its counters readable.
pub fn measure<A: Actor>(sc: &mut SimCluster<A>, warmup_ns: u64, run_ns: u64) -> RunResult {
    let nodes: Vec<NodeId> = (0..sc.config().nodes).map(|n| NodeId(n as u8)).collect();
    sc.run_for(warmup_ns);
    let before: Vec<u64> = nodes.iter().map(|&n| sc.node_completed(n)).collect();
    sc.run_for(run_ns);
    let per_node =
        nodes.iter().zip(&before).map(|(&n, b)| mreqs(sc.node_completed(n) - b, run_ns)).collect();
    let completed = sc.total_completed() - before.iter().sum::<u64>();
    let sum = |f: fn(&ProtoCounters) -> u64| nodes.iter().map(|&n| f(sc.counters(n))).sum();
    RunResult {
        mreqs: mreqs(completed, run_ns),
        per_node,
        completed,
        local_reads: sum(|c| c.local_reads.get()),
        slow_path: sum(|c| c.slow_path_accesses.get()),
        ae_msgs: sum(|c| {
            c.ae_digests_sent.get()
                + c.ae_summaries_sent.get()
                + c.ae_merkle_reqs.get()
                + c.ae_repair_reqs.get()
                + c.ae_repair_vals.get()
        }),
        total_completed: sc.total_completed(),
    }
}

/// Run `mix` on a Kite deployment in `mode` through [`measure`], its
/// sessions seeded from `sim_cfg.seed` ([`MixCfg::drivers`]).
pub fn run_kite_mix(
    cfg: ClusterConfig,
    mode: ProtocolMode,
    sim_cfg: SimCfg,
    mix: MixCfg,
    warmup_ns: u64,
    run_ns: u64,
) -> RunResult {
    let drivers = mix.drivers(&cfg, sim_cfg.seed);
    measure(&mut SimCluster::build(cfg, mode, sim_cfg, drivers, None), warmup_ns, run_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ClusterConfig {
        ClusterConfig::small().keys(1 << 10).sessions_per_worker(2)
    }

    fn sim() -> SimCfg {
        SimCfg { seed: 42, ..Default::default() }
    }

    const WARM: u64 = 1_000_000; // 1 ms virtual
    const RUN: u64 = 2_000_000; // 2 ms virtual

    #[test]
    fn read_only_es_throughput_is_positive_and_local() {
        let r = run_kite_mix(
            small_cfg(),
            ProtocolMode::EsOnly,
            sim(),
            MixCfg::plain(0.0, 1 << 10),
            WARM,
            RUN,
        );
        assert!(r.mreqs > 0.0);
        assert!(r.local_reads > 0);
        assert_eq!(r.slow_path, 0, "no failures → no slow path");
    }

    #[test]
    fn es_beats_abd_on_read_heavy_mix() {
        // The Figure 5 ordering at 5% writes: ES > ABD.
        let mix = MixCfg::plain(0.05, 1 << 10);
        let es = run_kite_mix(small_cfg(), ProtocolMode::EsOnly, sim(), mix, WARM, RUN);
        let abd = run_kite_mix(small_cfg(), ProtocolMode::AbdOnly, sim(), mix, WARM, RUN);
        assert!(
            es.mreqs > abd.mreqs * 1.5,
            "ES ({:.3}) must clearly beat ABD ({:.3}) on reads",
            es.mreqs,
            abd.mreqs
        );
    }

    #[test]
    fn kite_sits_between_es_and_abd_at_typical_sync() {
        let keys = 1 << 10;
        let es = run_kite_mix(small_cfg(), ProtocolMode::EsOnly, sim(), MixCfg::plain(0.2, keys), WARM, RUN);
        let kite =
            run_kite_mix(small_cfg(), ProtocolMode::Kite, sim(), MixCfg::typical(0.2, keys), WARM, RUN);
        let abd = run_kite_mix(small_cfg(), ProtocolMode::AbdOnly, sim(), MixCfg::plain(0.2, keys), WARM, RUN);
        assert!(es.mreqs >= kite.mreqs, "ES {} ≥ Kite {}", es.mreqs, kite.mreqs);
        assert!(kite.mreqs > abd.mreqs, "Kite {} > ABD {}", kite.mreqs, abd.mreqs);
    }

    #[test]
    fn zab_runs_and_reads_stay_local() {
        let cfg = small_cfg();
        let drivers = MixCfg::plain(0.2, 1 << 10).drivers(&cfg, 42);
        let r = measure(&mut kite_zab::sim_cluster(cfg, sim(), drivers, None), WARM, RUN);
        assert!(r.mreqs > 0.0);
        assert!(r.local_reads > 0);
    }

    #[test]
    fn per_node_sums_to_total() {
        let r = run_kite_mix(
            small_cfg(),
            ProtocolMode::Kite,
            sim(),
            MixCfg::typical(0.1, 1 << 10),
            WARM,
            RUN,
        );
        let sum: f64 = r.per_node.iter().sum();
        assert!((sum - r.mreqs).abs() < 1e-6);
    }
}
