//! Ack-coalescing correctness and effectiveness.
//!
//! The replica side folds every plain ack generated while draining one
//! inbound envelope into a single `AckBatch` (see `kite::msg`). These tests
//! pin the two properties that matter:
//!
//! * **equivalence** — under message drops and link delays, a run with
//!   coalescing completes exactly the same set of operations as a run
//!   without it, and both histories pass the `kite-verify` RC checks
//!   (stale rids inside a batch are dropped individually, so coalescing
//!   must not change any protocol outcome);
//! * **effectiveness** — on the in-process cluster, a write-heavy session
//!   with a deep write window costs *less than one ack message per write*
//!   (the seed paid `nodes − 1` per write).

use std::collections::BTreeSet;
use std::sync::Arc;

use kite::api::Op;
use kite::session::SessionDriver;
use kite::{ProtocolMode, SimCluster};
use kite_common::{ClusterConfig, Key, NodeId, SessionId, Val};
use kite_net::Cluster;
use kite_repro::testutil::recording_hook;
use kite_simnet::SimCfg;
use kite_verify::{check_rc, History};

const SEC: u64 = 1_000_000_000;

/// The shared deterministic mixed workload (see
/// `kite_repro::testutil::mixed_fault_driver` for the value-encoding
/// rules): every ack-producing path — relaxed writes (ES acks), releases
/// (value-round acks), acquires (write-back acks), FAAs (commit acks).
fn mixed_driver(sid: SessionId) -> SessionDriver {
    kite_repro::testutil::mixed_fault_driver(sid, 7, 60)
}

/// One faulted run: 25% loss on two directed links, 40 µs extra delay on a
/// third, same seed either way. Returns the completed-op set and the
/// aggregate (acks_coalesced, msgs_batched) counters.
fn faulted_run(coalesce: bool, seed: u64) -> (BTreeSet<(u8, u32, u64)>, Arc<History>, u64, u64) {
    let history = Arc::new(History::new());
    let cfg = ClusterConfig::small().keys(1 << 10).coalesce_acks(coalesce);
    let mut sc = SimCluster::build(
        cfg,
        ProtocolMode::Kite,
        SimCfg { seed, ..Default::default() },
        mixed_driver,
        Some(recording_hook(Arc::clone(&history))),
    );
    sc.sim.set_drop(NodeId(0), NodeId(1), 0.25);
    sc.sim.set_drop(NodeId(2), NodeId(0), 0.25);
    sc.sim.set_link_delay(NodeId(1), NodeId(2), 40_000);
    assert!(
        sc.run_until_quiesce(60 * SEC),
        "must quiesce under loss (retransmission liveness), coalesce={coalesce}"
    );
    let completed: BTreeSet<(u8, u32, u64)> = history
        .sorted()
        .iter()
        .map(|r| (r.session.node.0, r.session.slot, r.session_seq))
        .collect();
    let coalesced: u64 = (0..3).map(|n| sc.counters(NodeId(n)).acks_coalesced.get()).sum();
    let batches: u64 = (0..3).map(|n| sc.counters(NodeId(n)).msgs_batched.get()).sum();
    (completed, history, coalesced, batches)
}

#[test]
fn coalesced_acks_are_equivalent_to_per_message_acks_under_faults() {
    for seed in [11u64, 42] {
        let (ops_on, hist_on, coalesced_on, batches_on) = faulted_run(true, seed);
        let (ops_off, hist_off, coalesced_off, _) = faulted_run(false, seed);

        // The mechanism really was on in one run and off in the other.
        assert!(batches_on > 0, "seed {seed}: coalescing must actually trigger");
        assert!(coalesced_on > batches_on, "batches must carry >1 ack on average");
        assert_eq!(coalesced_off, 0, "per-message mode must not batch");

        // Same set of completed operations (every scripted op, exactly once),
        // and both histories are RC-correct.
        assert_eq!(ops_on, ops_off, "seed {seed}: completed-op sets diverge");
        assert_eq!(check_rc(&hist_on), Ok(()), "seed {seed}: coalesced run RCLin");
        assert_eq!(check_rc(&hist_off), Ok(()), "seed {seed}: baseline run RCLin");
    }
}

/// In-process cluster, write-heavy sessions, write window ≥ 8: the coalesced
/// ack path must cost strictly less than one ack *message* per ES write.
/// (The seed sent `nodes − 1 = 2` ack messages per write in this setup.)
#[test]
fn ack_messages_per_write_drop_below_one_at_window_8() {
    const WRITES_PER_SESSION: u64 = 400;
    let cfg = ClusterConfig::small().keys(1 << 10).sessions_per_worker(8);
    let sessions = cfg.sessions_per_node();
    let cluster = Cluster::launch(cfg, ProtocolMode::Kite).unwrap();

    let mut handles = Vec::new();
    for slot in 0..sessions as u32 {
        let mut sess = cluster.session(NodeId(0), slot).unwrap();
        handles.push(std::thread::spawn(move || {
            for i in 0..WRITES_PER_SESSION {
                sess.submit(Op::Write {
                    key: Key(100 + slot as u64),
                    val: Val::from_u64(i + 1),
                })
                .unwrap();
            }
            while sess.outstanding() > 0 {
                sess.next_completion().unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Let in-flight acks drain before sampling counters.
    std::thread::sleep(std::time::Duration::from_millis(100));

    let writes = sessions as u64 * WRITES_PER_SESSION;
    let ack_msgs: u64 = (0..3).map(|n| cluster.counters(NodeId(n)).acks_sent.get()).sum();
    let coalesced: u64 = (0..3).map(|n| cluster.counters(NodeId(n)).acks_coalesced.get()).sum();
    cluster.shutdown();

    assert!(coalesced > 0, "ack batches must form under a deep write window");
    let ratio = ack_msgs as f64 / writes as f64;
    assert!(
        ratio < 1.0,
        "expected < 1 ack message per write at window ≥ 8, got {ratio:.2} \
         ({ack_msgs} ack msgs / {writes} writes)"
    );
}
