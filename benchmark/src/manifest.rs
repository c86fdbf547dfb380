//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is this table rendered (`--emit-manifest`); a self-test
//! keeps the two identical.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// A workload: its name and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim_typical",
        why: "Paper's headline mix (5% sync, 20% writes) on the seeded simulator: core, kvs and simnet do all the work; net, wire, wal none",
    },
    Workload {
        name: "sim_sleep_heal",
        why: "Same engine, a replica sleeps mid-run: delinquency, slow-path releases, epoch bumps and anti-entropy carry the load that is idle in sim_typical",
    },
    Workload {
        name: "tcp_typical_open",
        why: "Same mix, open-loop Poisson arrivals at 16k ops/s, over three kite-node processes: net, wire and the client do most of the work; the WAL is off",
    },
    Workload {
        name: "tcp_sync_wal_open",
        why: "Write-heavy Zipf mix with RMWs, open loop at a fixed 4k ops/s, WAL on, then a SIGKILL-restart: wal, per-key Paxos and ABD rounds carry the load; local reads are a minority",
    },
];

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "tput_kops",
        unit: "kops/s",
        better: "higher",
        bound: 0.05,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "avail_ratio",
        unit: "ratio",
        better: "higher",
        bound: 0.05,
    },
];

/// A per-layer metric (`layer.name`, reported by the traced run, no bound).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    // workloads (the generator) and the open-loop schedule
    pl("workloads.next_op_ns", "ns", "lower"),
    pl("gen.late_p50_us", "us", "lower"),
    pl("gen.late_p99_us", "us", "lower"),
    // client (kite_net::RemoteSession)
    pl("client.submit_ns", "ns", "lower"),
    pl("client.flush_ns", "ns", "lower"),
    pl("client.poll_ns", "ns", "lower"),
    pl("client.ops_per_flush", "count", "higher"),
    pl("client.duplicates", "count", "lower"),
    pl("client.p90_us", "us", "lower"),
    pl("client.p99_us", "us", "lower"),
    pl("client.tail_us", "us", "lower"),
    pl("client.tail_pct", "%", "higher"),
    // net (fabric / ring / link)
    pl("net.frames_per_op", "count", "lower"),
    pl("net.msgs_per_frame", "count", "higher"),
    pl("net.write_syscalls_per_op", "count", "lower"),
    pl("net.ctx_switches_per_op", "count", "lower"),
    pl("net.cpu_sys_share", "ratio", "lower"),
    pl("net.shed_frames", "count", "lower"),
    pl("net.dropped_out", "count", "lower"),
    pl("net.decode_errors", "count", "lower"),
    pl("net.ring_frames_max", "count", "lower"),
    pl("ring.push_drain_ns_per_frame", "ns", "lower"),
    // wire (kite::wire)
    pl("wire.encode_ns_per_msg", "ns", "lower"),
    pl("wire.decode_ns_per_msg", "ns", "lower"),
    pl("wire.client_frame_ns", "ns", "lower"),
    pl("wire.bytes_per_msg", "B", "lower"),
    // core (worker / session / initiator / replica / inflight)
    pl("core.msgs_per_op", "count", "lower"),
    pl("core.envelopes_per_op", "count", "lower"),
    pl("core.msgs_per_envelope", "count", "higher"),
    pl("core.acks_per_op", "count", "lower"),
    pl("core.acks_per_batch", "count", "higher"),
    pl("core.local_read_share", "ratio", "higher"),
    pl("core.slow_path_per_kop", "count", "lower"),
    pl("core.slow_release_share", "ratio", "lower"),
    pl("core.epoch_bumps", "count", "lower"),
    pl("core.read_p50_us", "us", "lower"),
    pl("core.write_p50_us", "us", "lower"),
    pl("core.release_p50_us", "us", "lower"),
    pl("core.release_p99_us", "us", "lower"),
    pl("core.acquire_p50_us", "us", "lower"),
    pl("core.acquire_p99_us", "us", "lower"),
    pl("core.rmw_p50_us", "us", "lower"),
    pl("core.rmw_p99_us", "us", "lower"),
    pl("inflight.insert_remove_ns", "ns", "lower"),
    pl("inflight.reply_lookup_ns", "ns", "lower"),
    // simnet
    pl("outbox.broadcast_flush_ns", "ns", "lower"),
    pl("sim.dropped", "count", "lower"),
    pl("sim.wall_ms_per_virtual_ms", "ms", "lower"),
    // kvs
    pl("kvs.view_ns", "ns", "lower"),
    pl("kvs.fast_write_ns", "ns", "lower"),
    pl("kvs.stamp_apply_ns", "ns", "lower"),
    pl("kvs.apply_max_ns", "ns", "lower"),
    pl("kvs.digest_range_ns_per_slot", "ns", "lower"),
    pl("kvs.fold_leaves_ns", "ns", "lower"),
    pl("kvs.writes_per_op", "count", "lower"),
    pl("kvs.distinct_keys_est", "count", "higher"),
    // antientropy
    pl("ae.msgs_per_op", "count", "lower"),
    pl("ae.digest_bytes_per_op", "B", "lower"),
    pl("ae.repair_bytes_per_op", "B", "lower"),
    pl("ae.repairs_applied", "count", "lower"),
    pl("ae.catchup_ms", "ms", "lower"),
    pl("ae.heal_virtual_ms", "ms", "lower"),
    // wal
    pl("wal.records_per_op", "count", "lower"),
    pl("wal.bytes_per_op", "B", "lower"),
    pl("wal.fsyncs_per_kop", "count", "lower"),
    pl("wal.records_per_fsync", "count", "higher"),
    pl("wal.commit_p50_us", "us", "lower"),
    pl("wal.commit_p99_us", "us", "lower"),
    pl("wal.lag_bytes_max", "B", "lower"),
    pl("wal.replay_records", "count", "lower"),
    pl("wal.restart_ms", "ms", "lower"),
    pl("wal.record_ns", "ns", "lower"),
    pl("wal.flush_us", "us", "lower"),
    // metrics and the harness's own checks
    pl("metrics.hist_record_ns", "ns", "lower"),
    pl("verify.check_us_per_kop", "us", "lower"),
    // availability detail behind avail_ratio
    pl("avail.floor_ratio", "ratio", "higher"),
    pl("avail.wake_ratio", "ratio", "higher"),
    pl("avail.recover_ms", "ms", "lower"),
    // ledger: probe cost x calls per op, per layer
    pl("ledger.net_us_per_op", "us", "lower"),
    pl("ledger.wire_us_per_op", "us", "lower"),
    pl("ledger.core_us_per_op", "us", "lower"),
    pl("ledger.kvs_us_per_op", "us", "lower"),
    pl("ledger.wal_us_per_op", "us", "lower"),
    pl("ledger.coverage", "ratio", "higher"),
    // tracing
    pl("trace.overhead_ratio", "ratio", "lower"),
    pl("trace.spans", "count", "higher"),
    pl("trace.node_service_us", "us", "lower"),
    pl("trace.engine_self_us_per_op", "us", "lower"),
];

/// Render `BENCHMARK.json`.
pub fn render() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        let first = n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn table_meets_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let units = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in units {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            let unit_ok = unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
            assert!(
                unit_ok && !unit.is_empty() && unit.len() <= 16,
                "{name}: {unit}"
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(render().len() < 64 << 10);
    }

    #[test]
    fn committed_manifest_is_the_rendered_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            render(),
            "regenerate with: benchmark/run.sh --emit-manifest > BENCHMARK.json"
        );
    }
}
