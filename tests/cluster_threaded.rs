//! End-to-end tests of the in-process deployment: real worker threads,
//! loopback sockets, blocking clients — the §2.1 system shape in miniature.

use std::sync::Arc;
use std::time::Duration;

use kite::ProtocolMode;
use kite_common::{ClusterConfig, Key, KiteError, NodeId, Val};
use kite_net::Cluster;
use kite_repro::testutil::recording_hook;
use kite_verify::{check_rc, History};

fn cfg() -> ClusterConfig {
    ClusterConfig::small().keys(1 << 10)
}

#[test]
fn basic_api_round_trips_across_nodes() {
    let cluster = Cluster::launch(cfg(), ProtocolMode::Kite).unwrap();
    let mut a = cluster.session(NodeId(0), 0).unwrap();
    let mut b = cluster.session(NodeId(1), 0).unwrap();

    a.write(Key(1), Val::from_u64(7)).unwrap();
    assert_eq!(a.read(Key(1)).unwrap().as_u64(), 7, "read-your-writes");

    a.release(Key(2), Val::from_u64(1)).unwrap();
    // release is linearizable: any later acquire sees it (RCLin)
    assert_eq!(b.acquire(Key(2)).unwrap().as_u64(), 1);

    let old = b.fetch_add(Key(3), 4).unwrap();
    assert_eq!(old, 0);
    let old = a.fetch_add(Key(3), 1).unwrap();
    assert_eq!(old, 4);

    let (ok, observed) = a.cas_strong(Key(3), 5u64, 9u64).unwrap();
    assert!(ok);
    assert_eq!(observed.as_u64(), 5);

    cluster.shutdown();
}

#[test]
fn session_slots_claim_once() {
    let cluster = Cluster::launch(cfg(), ProtocolMode::Kite).unwrap();
    let _s = cluster.session(NodeId(0), 0).unwrap();
    match cluster.session(NodeId(0), 0) {
        Err(KiteError::SessionUnavailable(_)) => {}
        Err(other) => panic!("double claim must fail with SessionUnavailable, got {other:?}"),
        Ok(_) => panic!("double claim must fail"),
    }
    assert!(cluster.session(NodeId(9), 0).is_err(), "bad node rejected");
    assert!(cluster.session(NodeId(0), 99).is_err(), "bad slot rejected");
    cluster.shutdown();
}

#[test]
fn async_api_pipelines_in_session_order() {
    use kite::api::{Op, OpOutput};
    let cluster = Cluster::launch(cfg(), ProtocolMode::Kite).unwrap();
    let mut s = cluster.session(NodeId(0), 0).unwrap();
    for i in 0..10u64 {
        s.submit(Op::Write { key: Key(i), val: Val::from_u64(i * 10) }).unwrap();
    }
    s.submit(Op::Release { key: Key(99), val: Val::from_u64(1) }).unwrap();
    let mut outputs = Vec::new();
    for _ in 0..11 {
        outputs.push(s.next_completion().unwrap());
    }
    // completions arrive in session order
    for (i, c) in outputs.iter().take(10).enumerate() {
        assert_eq!(c.op_id.seq, i as u64);
        assert!(matches!(c.output, OpOutput::Done));
    }
    assert_eq!(outputs[10].op_id.seq, 10);
    cluster.shutdown();
}

/// Sync calls after async submissions must return the completion of *their
/// own* operation, not whatever is first in the pipe — the same
/// reconciliation that stops a late completion (after a recovered
/// `KiteError::Timeout`) from being misattributed to the next call.
#[test]
fn sync_call_after_async_backlog_returns_its_own_completion() {
    let cluster = Cluster::launch(cfg(), ProtocolMode::Kite).unwrap();
    let mut s = cluster.session(NodeId(0), 0).unwrap();
    // Leave a backlog of unretired async completions, like a session
    // recovering from a timed-out wait.
    for i in 0..5u64 {
        s.submit(kite::api::Op::Write { key: Key(40 + i), val: Val::from_u64(i + 1) }).unwrap();
    }
    assert_eq!(s.outstanding(), 5);
    // The sync read must skip/retire the five write completions and answer
    // with its own value.
    s.write(Key(50), Val::from_u64(77)).unwrap();
    assert_eq!(s.read(Key(50)).unwrap().as_u64(), 77);
    assert_eq!(s.outstanding(), 0, "sync call reconciles the whole backlog");
    // Counters stay exact afterwards: another async round-trip drains to 0.
    s.submit(kite::api::Op::Read { key: Key(50) }).unwrap();
    let c = s.next_completion().unwrap();
    assert_eq!(c.output.value().unwrap().as_u64(), 77);
    assert_eq!(s.outstanding(), 0);
    cluster.shutdown();
}

#[test]
fn producer_consumer_rc_holds_with_real_threads() {
    let history = Arc::new(History::new());
    let cluster = Arc::new(
        Cluster::launch_with(
            cfg(),
            ProtocolMode::Kite,
            Some(recording_hook(Arc::clone(&history))),
        )
        .unwrap(),
    );

    let producer = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let mut p = cluster.session(NodeId(0), 0).unwrap();
            for round in 1..=10u64 {
                for f in 0..8u64 {
                    p.write(Key(100 + f), Val::from_u64(round << 8 | f)).unwrap();
                }
                p.release(Key(50), Val::from_u64(round)).unwrap();
            }
        })
    };
    let consumer = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let mut c = cluster.session(NodeId(1), 0).unwrap();
            let mut seen = 0u64;
            while seen < 10 {
                let flag = c.acquire(Key(50)).unwrap().as_u64();
                if flag > seen {
                    seen = flag;
                    for f in 0..8u64 {
                        let v = c.read(Key(100 + f)).unwrap().as_u64();
                        assert!(
                            v >= flag << 8 | f && (v & 0xFF) == f,
                            "torn/stale field {f} in round {flag}: {v:#x}"
                        );
                    }
                }
            }
        })
    };
    producer.join().unwrap();
    consumer.join().unwrap();

    // The recorded history is not checkable by check_rc (values repeat per
    // round across fields — uniqueness per key holds, which is what the
    // checker needs for the *flag* key; payload keys use round<<8|f, also
    // unique per key). Check it.
    assert_eq!(check_rc(&history), Ok(()), "RC violated");

    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("threads joined; sole owner expected"),
    }
}

/// Mutual exclusion on real threads under 10% uniform message loss: a
/// CAS-lock guarded counter must count every critical section exactly once
/// (retransmission + the slow path absorb the loss).
#[test]
fn threaded_mutex_exact_under_message_loss() {
    const THREADS: usize = 3;
    const ROUNDS: u64 = 8;
    let cluster = Arc::new(
        Cluster::launch(cfg().release_timeout_ns(500_000), ProtocolMode::Kite).unwrap(),
    );
    // A wedged run aborts with a per-worker protocol-state dump instead of
    // hanging the suite forever.
    let _watchdog = cluster.watchdog(Duration::from_secs(60));
    for a in 0..3u8 {
        for b in 0..3u8 {
            if a != b {
                cluster.set_drop(NodeId(a), NodeId(b), 0.10);
            }
        }
    }

    let lock = Key(1);
    let counter = Key(2);
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            let mut sess = cluster.session(NodeId(t as u8), 0).unwrap();
            for _ in 0..ROUNDS {
                loop {
                    let (ok, _) = sess.cas_strong(lock, Val::EMPTY, t as u64 + 1).unwrap();
                    if ok {
                        break;
                    }
                    std::thread::yield_now();
                }
                let v = sess.read(counter).unwrap().as_u64();
                sess.write(counter, Val::from_u64(v + 1)).unwrap();
                sess.release(lock, Val::EMPTY).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Heal before the verification acquire so it can't be starved by loss.
    for a in 0..3u8 {
        for b in 0..3u8 {
            if a != b {
                cluster.set_drop(NodeId(a), NodeId(b), 0.0);
            }
        }
    }
    let mut v = cluster.session(NodeId(0), 1).unwrap();
    assert_eq!(
        v.acquire(counter).unwrap().as_u64(),
        THREADS as u64 * ROUNDS,
        "increment lost under loss — mutual exclusion or the slow path is broken"
    );
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("threads joined; sole owner expected"),
    }
}

/// The §4.3 ablation combinations work on real threads too (the ablation
/// suites exercise them on the simulator).
#[test]
fn ablation_combos_round_trip_on_threads() {
    for (overlap, stripped) in [(true, false), (false, true), (false, false)] {
        let cluster = Cluster::launch(
            cfg().overlap_release(overlap).stripped_slow_path(stripped),
            ProtocolMode::Kite,
        )
        .unwrap();
        let mut a = cluster.session(NodeId(0), 0).unwrap();
        let mut b = cluster.session(NodeId(1), 0).unwrap();
        for i in 1..=5u64 {
            a.write(Key(10 + i), Val::from_u64(i)).unwrap();
        }
        a.release(Key(1), Val::from_u64(1)).unwrap();
        assert_eq!(b.acquire(Key(1)).unwrap().as_u64(), 1, "overlap={overlap}");
        for i in 1..=5u64 {
            assert_eq!(
                b.read(Key(10 + i)).unwrap().as_u64(),
                i,
                "overlap={overlap} stripped={stripped}: payload {i}"
            );
        }
        assert_eq!(a.fetch_add(Key(2), 3).unwrap(), 0);
        assert_eq!(b.fetch_add(Key(2), 1).unwrap(), 3);
        cluster.shutdown();
    }
}

#[test]
fn all_protocol_modes_serve_reads_and_writes() {
    for mode in [
        ProtocolMode::Kite,
        ProtocolMode::EsOnly,
        ProtocolMode::AbdOnly,
        ProtocolMode::PaxosOnly,
    ] {
        let cluster = Cluster::launch(cfg(), mode).unwrap();
        let mut s = cluster.session(NodeId(0), 0).unwrap();
        s.write(Key(1), Val::from_u64(5)).unwrap();
        assert_eq!(s.read(Key(1)).unwrap().as_u64(), 5, "mode {mode:?}");
        cluster.shutdown();
    }
}
