//! Measurement harness: run a mix on a simulated deployment for
//! warmup + measurement windows and report throughput (mreqs of virtual
//! time), per node and in aggregate — the quantity every figure of §8
//! plots.

use kite::session::SessionDriver;
use kite::{ProtocolMode, SimCluster};
use kite_common::{ClusterConfig, NodeId};
use kite_simnet::SimCfg;
use kite_zab::ZabSimCluster;

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
    /// failures).
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

/// Run `mix` on a Kite deployment in `mode` for `warmup_ns + run_ns` of
/// virtual time; throughput is measured over the last `run_ns`.
pub fn run_kite_mix(
    cfg: ClusterConfig,
    mode: ProtocolMode,
    sim_cfg: SimCfg,
    mix: MixCfg,
    warmup_ns: u64,
    run_ns: u64,
) -> RunResult {
    mix.validate().expect("invalid mix");
    let seed0 = sim_cfg.seed;
    let mut sc = SimCluster::build(
        cfg.clone(),
        mode,
        sim_cfg,
        |sid| {
            let seed = seed0 ^ ((sid.global_idx(cfg.sessions_per_node()) as u64 + 1) * 0x9E37);
            SessionDriver::Script(Box::new(mix.generator(seed)))
        },
        None,
    );
    sc.run_for(warmup_ns);
    let before: Vec<u64> = (0..cfg.nodes).map(|n| sc.node_completed(NodeId(n as u8))).collect();
    sc.run_for(run_ns);
    let after: Vec<u64> = (0..cfg.nodes).map(|n| sc.node_completed(NodeId(n as u8))).collect();
    let per_node: Vec<f64> =
        before.iter().zip(&after).map(|(b, a)| SimCluster::mreqs(a - b, run_ns)).collect();
    let completed: u64 = after.iter().sum::<u64>() - before.iter().sum::<u64>();
    let (local_reads, slow_path, ae_msgs) = (0..cfg.nodes)
        .map(|n| {
            let c = sc.counters(NodeId(n as u8));
            (
                c.local_reads.get(),
                c.slow_path_accesses.get(),
                c.ae_digests_sent.get()
                    + c.ae_summaries_sent.get()
                    + c.ae_merkle_reqs.get()
                    + c.ae_repair_reqs.get()
                    + c.ae_repair_vals.get(),
            )
        })
        .fold((0, 0, 0), |(lr, sp, ae), (l, s, e)| (lr + l, sp + s, ae + e));
    RunResult {
        mreqs: SimCluster::mreqs(completed, run_ns),
        per_node,
        completed,
        local_reads,
        slow_path,
        ae_msgs,
        total_completed: sc.total_completed(),
    }
}

/// Run `mix` on the ZAB baseline. Releases/acquires degrade to ZAB
/// writes/reads (ZAB has no RC API — §8.1 compares it at equal write
/// ratios).
pub fn run_zab_mix(
    cfg: ClusterConfig,
    sim_cfg: SimCfg,
    mix: MixCfg,
    warmup_ns: u64,
    run_ns: u64,
) -> RunResult {
    mix.validate().expect("invalid mix");
    let seed0 = sim_cfg.seed;
    let mut zc = ZabSimCluster::build(
        cfg.clone(),
        sim_cfg,
        |sid| {
            let seed = seed0 ^ ((sid.global_idx(cfg.sessions_per_node()) as u64 + 1) * 0x9E37);
            SessionDriver::Script(Box::new(mix.generator(seed)))
        },
        None,
    );
    zc.run_for(warmup_ns);
    let before: Vec<u64> =
        (0..cfg.nodes).map(|n| zc.counters(NodeId(n as u8)).completed.get()).collect();
    zc.run_for(run_ns);
    let after: Vec<u64> =
        (0..cfg.nodes).map(|n| zc.counters(NodeId(n as u8)).completed.get()).collect();
    let per_node: Vec<f64> =
        before.iter().zip(&after).map(|(b, a)| SimCluster::mreqs(a - b, run_ns)).collect();
    let completed: u64 = after.iter().sum::<u64>() - before.iter().sum::<u64>();
    let local_reads =
        (0..cfg.nodes).map(|n| zc.counters(NodeId(n as u8)).local_reads.get()).sum();
    let total_completed = (0..cfg.nodes).map(|n| zc.counters(NodeId(n as u8)).completed.get()).sum();
    RunResult {
        mreqs: SimCluster::mreqs(completed, run_ns),
        per_node,
        completed,
        local_reads,
        slow_path: 0,
        ae_msgs: 0,
        total_completed,
    }
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
        let r = run_zab_mix(small_cfg(), sim(), MixCfg::plain(0.2, 1 << 10), WARM, RUN);
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
