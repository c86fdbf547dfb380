//! Integration test of the live-observability plane: a 3-node loopback
//! cluster under a flash-crowd write mix, scraped **mid-run** through each
//! node's metrics endpoint. Asserts the acceptance surface of the metrics
//! subsystem:
//!
//! * every node serves the plain-text `key value` view on its own port
//!   (the endpoint rides worker 0's existing epoll loop — no threads);
//! * protocol counters, per-link fabric stats, per-class latency
//!   histograms (p50/p99/p999) and WAL watermarks are all present;
//! * the HyperLogLog distinct-keys estimate lands within 5% of the exact
//!   distinct-key count tracked client-side;
//! * a second scrape observes progress (the view is live, not a snapshot
//!   taken at launch);
//! * the `dump` view returns the promoted watchdog text.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use kite::ProtocolMode;
use kite_common::{ClusterConfig, Key, NodeId};
use kite_net::{Cluster, RemoteSession};

fn cfg(wal_dir: &str) -> ClusterConfig {
    ClusterConfig::small()
        .keys(1 << 10)
        .sessions_per_worker(4)
        .release_timeout_ns(2_000_000)
        .wal_dir(wal_dir)
}

/// One scrape round-trip: connect, send the request line, read to EOF.
fn scrape(addr: &std::net::SocketAddr, view: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics endpoint");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream.write_all(format!("{view}\n").as_bytes()).expect("send request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read response");
    body
}

/// Parse `name value` out of a scrape body.
fn metric(body: &str, name: &str) -> Option<u64> {
    body.lines().find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        (k == name).then(|| v.parse().expect("numeric metric value"))
    })
}

fn wait_for(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

#[test]
fn scrape_mid_run_under_flash_crowd() {
    let wal_dir = std::env::temp_dir().join(format!("kite-scrape-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let nodes = Cluster::launch(cfg(wal_dir.to_str().expect("utf8")), ProtocolMode::Kite)
        .expect("launch")
        .into_nodes();
    let maddrs: Vec<std::net::SocketAddr> =
        nodes.iter().map(|n| n.metrics_addr().expect("metrics endpoint enabled")).collect();

    // Flash-crowd phase 1: one session per node, half of every session's
    // writes on the single hot key 0, the rest on a hashed cold range.
    // Track the exact distinct-key set client-side as the HLL oracle.
    let mut sessions: Vec<RemoteSession> = nodes
        .iter()
        .map(|n| RemoteSession::connect(&n.addr().to_string(), 0).expect("session"))
        .collect();
    let mut exact: HashSet<u64> = HashSet::new();
    let drive = |sessions: &mut Vec<RemoteSession>, exact: &mut HashSet<u64>, ops: u64| {
        for i in 0..ops {
            for (idx, s) in sessions.iter_mut().enumerate() {
                let v = ((idx as u64 + 1) << 40) | (i + 1);
                let key = if i % 2 == 0 {
                    0
                } else {
                    1 + (v.wrapping_mul(0x9E3779B97F4A7C15) >> 16) % 1000
                };
                s.write(Key(key), v).expect("write");
                exact.insert(key);
                if i % 8 == 0 {
                    s.read(Key(0)).expect("read");
                }
            }
        }
    };
    drive(&mut sessions, &mut exact, 400);

    // Mid-run scrape of every node: sessions are still open, the cluster
    // keeps serving. The full acceptance surface must be present.
    let mut completed_first = Vec::new();
    for (n, addr) in maddrs.iter().enumerate() {
        let body = scrape(addr, "scrape");
        assert_eq!(metric(&body, "node_id"), Some(n as u64), "node {n} identity");
        assert!(metric(&body, "proto_completed").expect("proto_completed") > 0, "node {n}");
        assert!(metric(&body, "store_writes").expect("store_writes") > 0, "node {n}");
        // Per-class latency histograms with all three quantiles.
        for class in ["read", "write", "release", "acquire", "rmw"] {
            for stat in ["count", "p50", "p99", "p999"] {
                assert!(
                    metric(&body, &format!("op_{class}_latency_ns_{stat}")).is_some(),
                    "node {n} missing op_{class}_latency_ns_{stat}"
                );
            }
        }
        assert!(
            metric(&body, "op_write_latency_ns_count").expect("write count") > 0,
            "node {n} recorded no write latencies"
        );
        // WAL watermarks + group-commit latency histogram.
        assert!(metric(&body, "wal_appended_bytes").expect("wal watermark") > 0, "node {n}");
        assert!(metric(&body, "wal_durable_bytes").is_some(), "node {n}");
        assert!(metric(&body, "wal_commit_latency_ns_p99").is_some(), "node {n}");
        // Per-link fabric stats for every (peer, worker) pair, self excluded.
        for peer in 0..nodes.len() {
            if peer == n {
                assert!(
                    metric(&body, &format!("link_n{peer}_w0_frames_out")).is_none(),
                    "node {n} must not export a self-link"
                );
                continue;
            }
            for field in ["frames_out", "frames_in", "shed_full", "decode_errors", "phase"] {
                assert!(
                    metric(&body, &format!("link_n{peer}_w0_{field}")).is_some(),
                    "node {n} missing link_n{peer}_w0_{field}"
                );
            }
            assert!(
                metric(&body, &format!("link_n{peer}_w0_frames_out")).expect("frames") > 0,
                "node {n} link to {peer} moved no frames"
            );
            assert_eq!(
                metric(&body, &format!("link_n{peer}_w0_decode_errors")),
                Some(0),
                "node {n} link to {peer} saw decode errors"
            );
        }
        // Every line is exactly `key value` (the format contract the
        // shell-side e2e assertions parse with awk).
        for line in body.lines() {
            assert_eq!(line.split_whitespace().count(), 2, "bad line on node {n}: {line}");
        }
        completed_first.push(metric(&body, "proto_completed").expect("completed"));
    }

    // Flash-crowd phase 2, then re-scrape: the view must be live.
    drive(&mut sessions, &mut exact, 200);
    for (n, addr) in maddrs.iter().enumerate() {
        let body = scrape(addr, "scrape");
        assert!(
            metric(&body, "proto_completed").expect("completed") > completed_first[n],
            "node {n} scrape did not observe progress"
        );
    }

    // HLL distinct-keys estimate within 5% of the exact client-side count,
    // on every node (writes replicate everywhere, so all stores hold the
    // same key set; allow time for the last appliers to catch up).
    let exact_n = exact.len() as f64;
    for (n, addr) in maddrs.iter().enumerate() {
        assert!(
            wait_for(Duration::from_secs(20), || {
                let est = metric(&scrape(addr, "scrape"), "store_distinct_keys_est")
                    .expect("hll estimate") as f64;
                (est - exact_n).abs() / exact_n <= 0.05
            }),
            "node {n} HLL estimate stayed outside 5% of exact {exact_n}"
        );
    }

    // The dump view: the promoted watchdog text (worker loop state + node
    // describe + link table + WAL health).
    let dump = scrape(&maddrs[0], "dump");
    assert!(dump.contains("node n0"), "dump missing node line:\n{dump}");
    assert!(dump.contains("links of"), "dump missing link table:\n{dump}");
    assert!(dump.contains("wal"), "dump missing wal describe:\n{dump}");

    // Concurrent scrapes multiplex on the same loop without wedging it.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let addr = maddrs[0];
            std::thread::spawn(move || scrape(&addr, "scrape"))
        })
        .collect();
    for h in handles {
        assert!(h.join().expect("scrape thread").contains("proto_completed"));
    }
    // And the data plane still works after all that.
    sessions[0].write(Key(0), 0xF00Du64).expect("post-scrape write");
    assert_eq!(
        NodeId(0),
        nodes[0].node(),
        "sanity: runtime node identity"
    );

    drop(sessions);
    for n in nodes {
        n.shutdown();
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// A client that connects and disappears without sending a request line
/// must not wedge the loop or leak the conn slot.
#[test]
fn half_open_scrape_connections_are_harmless() {
    let nodes =
        Cluster::launch(ClusterConfig::small().keys(1 << 8), ProtocolMode::Kite)
            .expect("launch")
            .into_nodes();
    let addr = nodes[0].metrics_addr().expect("metrics endpoint");

    // Connect-and-drop, connect-and-idle, then a real scrape must still
    // be served promptly.
    drop(TcpStream::connect(addr).expect("connect"));
    let idle = TcpStream::connect(addr).expect("connect");
    let body = scrape(&addr, "scrape");
    assert!(body.contains("node_id 0"), "scrape after half-open clients:\n{body}");
    drop(idle);

    // Unknown request lines get the metrics view (the endpoint is
    // forgiving: anything that isn't `dump` is a scrape).
    let body = scrape(&addr, "/metrics");
    assert!(body.contains("proto_completed"), "unknown view fallback:\n{body}");

    for n in nodes {
        n.shutdown();
    }
}

/// The complete scrape key set of node 0 of a 3-node, 1-worker, WAL-on
/// cluster, sorted — captured at the commit before `scrape.rs` stopped
/// listing other layers' fields. The benchmark harness, `scripts/e2e_tcp.sh`
/// and `kite-client` parse these names, so a key renamed, dropped or added
/// must show up here as a deliberate edit.
const NODE0_KEYS: &str = "\
    link_n1_w0_connects link_n1_w0_decode_errors link_n1_w0_dropped_out \
    link_n1_w0_frames_in link_n1_w0_frames_out link_n1_w0_phase link_n1_w0_ring_bytes \
    link_n1_w0_ring_frames link_n1_w0_shed_full link_n2_w0_connects link_n2_w0_decode_errors \
    link_n2_w0_dropped_out link_n2_w0_frames_in link_n2_w0_frames_out link_n2_w0_phase \
    link_n2_w0_ring_bytes link_n2_w0_ring_frames link_n2_w0_shed_full loop_w0_completions \
    loop_w0_envelope_msgs loop_w0_envelopes loop_w0_epoll_waits loop_w0_idle_ticks \
    loop_w0_passes loop_w0_pumps loop_w0_read_eagain loop_w0_reads loop_w0_wakes \
    loop_w0_writev_frames loop_w0_writevs membership_epoch membership_learners \
    membership_voters node_id op_acquire_latency_ns_count op_acquire_latency_ns_p50 \
    op_acquire_latency_ns_p99 op_acquire_latency_ns_p999 op_read_latency_ns_count \
    op_read_latency_ns_p50 op_read_latency_ns_p99 op_read_latency_ns_p999 \
    op_release_latency_ns_count op_release_latency_ns_p50 op_release_latency_ns_p99 \
    op_release_latency_ns_p999 op_rmw_latency_ns_count op_rmw_latency_ns_p50 \
    op_rmw_latency_ns_p99 op_rmw_latency_ns_p999 op_write_latency_ns_count \
    op_write_latency_ns_p50 op_write_latency_ns_p99 op_write_latency_ns_p999 \
    proto_acks_coalesced proto_acks_sent proto_ae_digest_bytes proto_ae_digest_keys \
    proto_ae_digests_sent proto_ae_merkle_reqs proto_ae_repair_bytes proto_ae_repair_reqs \
    proto_ae_repair_vals proto_ae_repairs_applied proto_ae_summaries_sent proto_completed \
    proto_envelopes_sent proto_epoch_bumps proto_fast_releases proto_local_reads \
    proto_membership_installs proto_membership_pulls proto_msgs_batched proto_msgs_sent \
    proto_rmw_already_committed proto_rmw_backoffs proto_rmw_helped proto_rmw_nacks \
    proto_rmw_rounds proto_slow_path_accesses proto_slow_releases proto_stale_epoch_dropped \
    store_distinct_keys_est store_exts store_len store_slots store_vals store_writes wal_appended_bytes \
    wal_commit_busy_ns wal_commit_latency_ns_count wal_commit_latency_ns_p50 \
    wal_commit_latency_ns_p99 wal_commit_latency_ns_p999 \
    wal_durable_bytes wal_flush_batches wal_flusher_wakes wal_fsyncs wal_lag_bytes \
    wal_records wal_snapshots";

fn keys_of(body: &str) -> Vec<&str> {
    let mut keys: Vec<&str> =
        body.lines().map(|l| l.split_once(' ').expect("`key value` line").0).collect();
    keys.sort_unstable();
    keys
}

#[test]
fn scrape_key_set_is_pinned() {
    let wal_dir = std::env::temp_dir().join(format!("kite-scrape-keys-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let cfg = cfg(wal_dir.to_str().expect("utf8"));
    assert_eq!((cfg.nodes, cfg.workers_per_node), (3, 1), "the pinned list's topology");
    let nodes = Cluster::launch(cfg, ProtocolMode::Kite).expect("launch").into_nodes();
    let addr = nodes[0].metrics_addr().expect("metrics endpoint");
    let expected: Vec<&str> = NODE0_KEYS.split_whitespace().collect();
    assert_eq!(keys_of(&scrape(&addr, "scrape")), expected);

    // The dump view's node-level half still opens with these lines.
    let dump = scrape(&addr, "dump");
    for prefix in ["node n0 mode=Kite completed=", "membership e0 ", "links of n0:", "wal records="] {
        assert!(dump.lines().any(|l| l.starts_with(prefix)), "dump lost `{prefix}`:\n{dump}");
    }
    for n in nodes {
        n.shutdown();
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// The simulator registers the core layer through the same
/// `NodeShared::register_metrics` the daemon's hub calls: its
/// `metrics_text` is exactly the daemon's `proto_*` / `membership_*` /
/// `store_*` / `op_*` lines, over the same atomics the typed fields read —
/// and so is `Cluster::metrics_text`, which reads a daemon node in-process.
#[test]
fn sim_and_daemon_render_the_same_core_keys() {
    let cfg = ClusterConfig::small().keys(1 << 8);
    let cluster = Cluster::launch(cfg.clone(), ProtocolMode::Kite).expect("launch");
    let body = scrape(&cluster.nodes()[0].metrics_addr().expect("metrics endpoint"), "scrape");
    let core: Vec<&str> = keys_of(&body)
        .into_iter()
        .filter(|k| ["proto_", "membership_", "store_", "op_"].iter().any(|p| k.starts_with(p)))
        .collect();
    assert_eq!(core.len(), 28 + 3 + 6 + 5 * 4, "core-layer keys in the daemon's scrape: {core:?}");

    cluster.session(NodeId(2), 0).expect("session").write(Key(5), 1u64).expect("write");
    let text = cluster.metrics_text(NodeId(2));
    assert_eq!(keys_of(&text), core, "Cluster::metrics_text");
    assert_eq!(metric(&text, "proto_completed"), Some(cluster.counters(NodeId(2)).completed.get()));
    assert_eq!(metric(&text, "op_write_latency_ns_count"), Some(1));
    cluster.shutdown();

    let sim = kite::SimCluster::build(
        cfg,
        ProtocolMode::Kite,
        kite_simnet::SimCfg::default(),
        |_| kite::session::SessionDriver::Idle,
        None,
    );
    sim.counters(NodeId(1)).slow_releases.add(7);
    let text = sim.metrics_text(NodeId(1));
    assert_eq!(keys_of(&text), core, "SimCluster::metrics_text");
    assert_eq!(metric(&text, "proto_slow_releases"), Some(7));
    assert_eq!(metric(&sim.metrics_text(NodeId(0)), "proto_slow_releases"), Some(0));
}
