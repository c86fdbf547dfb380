//! Backpressure fault test: a peer that accepts the connection and then
//! stops reading (a stalled receiver — the socket twin of a SIGSTOPped
//! process). The sender's outbound ring must stay bounded (ring caps, not
//! unbounded queue growth), surface the sheds on the link table, and
//! resume delivery the moment the peer drains again — the lossy-link
//! failure model of the simulated fabric, reproduced on real sockets.
//!
//! `scripts/stress.sh` loops this test to shake out timing-dependent
//! reconnect/shed races.

use std::io::Read;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kite::api::{Completion, Op};
use kite::msg::Msg;
use kite_common::{NodeId, SessionId};
use kite_net::ring::{RING_CAP_BYTES, RING_CAP_FRAMES};
use kite_net::{spawn_tcp_workers, ClientPort, TcpNet, TcpNetCfg};
use kite_simnet::{Actor, Outbox, Wakeup};

/// Saturates the link to node 1: every tick emits a few ~8 KiB frames,
/// far faster than a stalled peer can absorb.
struct Flood;

impl Actor for Flood {
    type Msg = Msg;

    fn on_envelope(
        &mut self,
        _src: NodeId,
        _mepoch: u32,
        msgs: &mut Vec<Msg>,
        _now: u64,
        _out: &mut Outbox<Msg>,
    ) {
        msgs.clear();
    }

    fn on_tick(&mut self, _now: u64, out: &mut Outbox<Msg>) -> Wakeup {
        for _ in 0..4 {
            out.send(NodeId(1), Msg::AckBatch { rids: vec![0u64; 256] });
        }
        Wakeup::AGAIN
    }

    fn describe(&self, out: &mut String) {
        out.push_str("flood\n");
    }
}

/// Serves no client sessions.
impl ClientPort for Flood {
    fn submit(&mut self, _session: SessionId, _op: Op) {}

    fn completions(&mut self) -> impl Iterator<Item = Completion> + '_ {
        std::iter::empty()
    }
}

fn wait_for(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn stalled_peer_bounds_sender_memory_and_recovery_resumes_flow() {
    // The "peer": a plain listener that accepts and then refuses to read
    // until told to drain.
    let mock = TcpListener::bind("127.0.0.1:0").expect("bind mock peer");
    let mock_addr = mock.local_addr().unwrap().to_string();
    let drain = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let mock_thread = {
        let drain = Arc::clone(&drain);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let (mut conn, _) = mock.accept().expect("accept flooder");
            conn.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
            // Stall phase: hold the connection open, read nothing.
            while !drain.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
            }
            // Resume phase: swallow everything until the test ends.
            let mut sink = [0u8; 64 << 10];
            while !stop.load(Ordering::Relaxed) {
                match conn.read(&mut sink) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => break,
                }
            }
        })
    };

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind node 0");
    let me_addr = listener.local_addr().unwrap().to_string();
    let (net, ios) = TcpNet::bind(TcpNetCfg {
        me: NodeId(0),
        peers: vec![me_addr, mock_addr],
        workers: 1,
        sessions_per_worker: 1,
        listener,
    })
    .expect("bind fabric");
    let rigs = ios.into_iter().map(|io| (Flood, io)).collect();
    let handle = spawn_tcp_workers(rigs, &net);

    let link = || net.links().link(NodeId(1), 0);

    // Phase 1 — stall. The kernel buffers absorb a few MB, then the ring
    // fills and pushes start shedding. Memory stays bounded by the ring
    // caps the whole time.
    assert!(
        wait_for(Duration::from_secs(30), || link().shed_full.load(Ordering::Relaxed) > 0),
        "flooding a stalled peer never shed a frame; links:\n{}",
        net.links().describe()
    );
    for _ in 0..20 {
        let frames = link().ring_frames.load(Ordering::Relaxed) as usize;
        let bytes = link().ring_bytes.load(Ordering::Relaxed) as usize;
        assert!(frames <= RING_CAP_FRAMES, "ring frame cap violated: {frames}");
        assert!(bytes <= RING_CAP_BYTES, "ring byte cap violated: {bytes}");
        std::thread::sleep(Duration::from_millis(5));
    }
    let shed_at_stall = link().shed_full.load(Ordering::Relaxed);
    let sent_at_stall = link().frames_out.load(Ordering::Relaxed);
    assert!(shed_at_stall > 0);

    // Phase 2 — resume. The peer drains; delivery must pick back up well
    // past where the stall pinned it.
    drain.store(true, Ordering::Relaxed);
    assert!(
        wait_for(Duration::from_secs(30), || {
            link().frames_out.load(Ordering::Relaxed) > sent_at_stall + 200
        }),
        "delivery never resumed after the peer drained; links:\n{}",
        net.links().describe()
    );

    stop.store(true, Ordering::Relaxed);
    handle.stop_and_join();
    drop(net);
    mock_thread.join().unwrap();
}
