//! A node out of file descriptors: a connection pending on a listener makes
//! every `accept` fail with `EMFILE` while the level-triggered listener
//! stays readable. Worker 0's loop must pause that listener — a deadline,
//! not a spin and not a sleep — and serve the pending connections once
//! descriptors are back. This binary holds a single test on purpose:
//! `RLIMIT_NOFILE` is per process, so a sibling test would run out of
//! descriptors too.

use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use kite::api::Op;
use kite::wire::{self, ClientFrame, Hello};
use kite::ProtocolMode;
use kite_common::{ClusterConfig, Key, NodeId};
use kite_net::{Cluster, LinkPhase};

/// `struct rlimit` on Linux: two `rlim_t`, which are 64-bit.
#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

const RLIMIT_NOFILE: i32 = 7;

fn nofile() -> Rlimit {
    let mut r = Rlimit { cur: 0, max: 0 };
    // SAFETY: `r` is a live, writable `struct rlimit` the kernel fills in;
    // the call takes no other pointer.
    let rc = unsafe { getrlimit(RLIMIT_NOFILE, &mut r) };
    assert_eq!(rc, 0, "getrlimit: {}", std::io::Error::last_os_error());
    r
}

fn set_nofile(cur: u64) {
    let r = Rlimit { cur, max: nofile().max };
    // SAFETY: `r` is a live `struct rlimit` the kernel only reads.
    let rc = unsafe { setrlimit(RLIMIT_NOFILE, &r) };
    assert_eq!(rc, 0, "setrlimit: {}", std::io::Error::last_os_error());
}

/// The next client-protocol frame on a blocking stream.
fn next_frame(s: &mut TcpStream, buf: &mut Vec<u8>) -> ClientFrame {
    loop {
        if let Some((body, rest)) = wire::next_frame(buf).expect("a client frame") {
            let frame = wire::decode_client_frame(body).expect("a well-formed frame");
            let used = buf.len() - rest.len();
            buf.drain(..used);
            return frame;
        }
        let mut chunk = [0u8; 4096];
        let n = s.read(&mut chunk).expect("the node answers");
        assert!(n > 0, "the node closed the session");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn a_listener_out_of_fds_pauses_instead_of_spinning() {
    let cluster = Cluster::launch(ClusterConfig::small(), ProtocolMode::Kite).expect("launch");
    // Dials and accepts need descriptors too: start from every link up in
    // both directions (a peer's frames arrived, so its connection was
    // accepted), or a pending one would take a descriptor given back below.
    let deadline = Instant::now() + Duration::from_secs(30);
    let all_up = || {
        (cluster.nodes().iter().enumerate()).all(|(me, n)| {
            (0..3).filter(|&p| p != me).all(|p| {
                let link = n.links().link(NodeId(p as u8), 0);
                link.phase() == LinkPhase::Connected && link.frames_in.load(Ordering::Relaxed) > 0
            })
        })
    };
    while !all_up() {
        assert!(Instant::now() < deadline, "links never all connected");
        std::thread::sleep(Duration::from_millis(5));
    }
    let node = &cluster.nodes()[0];
    let passes = || node.fabric_stats().loops[0].passes.load(Ordering::Relaxed);

    // Lower the limit, take every descriptor left under it, and give one
    // back per client socket the test opens: the node's accepts fail with
    // EMFILE. A node retrying its accept may win the second descriptor;
    // then everything is given back and the setup starts over.
    let limit = nofile();
    let highest = std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u64>().ok())
        .max()
        .expect("open fds");
    let metrics = node.metrics_addr().expect("metrics endpoint");
    let (mut scrape, mut session, filler) = (0..10)
        .find_map(|_| {
            set_nofile(highest + 16);
            let mut filler = Vec::new();
            while let Ok(f) = File::open("/dev/null") {
                filler.push(f);
            }
            assert!(filler.len() >= 2, "no descriptors to give back");
            filler.pop();
            let scrape = TcpStream::connect(metrics).expect("a metrics connection fits");
            std::thread::sleep(Duration::from_millis(20)); // the node's accept fails
            filler.pop();
            let Ok(session) = TcpStream::connect(node.addr()) else {
                set_nofile(limit.cur);
                drop((scrape, filler));
                std::thread::sleep(Duration::from_millis(100)); // the scrape closes
                return None;
            };
            Some((scrape, session, filler))
        })
        .expect("the node won the race for a descriptor ten times");
    scrape.write_all(b"scrape\n").expect("request");
    session.write_all(&wire::encode_hello(Hello::Client { slot: 0 })).expect("hello");

    // Both connections sit in their listeners' backlogs, readable and
    // unacceptable.
    std::thread::sleep(Duration::from_millis(100));
    let before = passes();
    std::thread::sleep(Duration::from_secs(1));
    let spent = passes() - before;
    set_nofile(limit.cur);
    drop(filler);
    assert!(spent <= 200, "worker 0's loop went round {spent} times in 1 s on failing accepts");

    // Served once descriptors are back: the scrape answers…
    scrape.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut body = String::new();
    scrape.read_to_string(&mut body).expect("scrape response");
    assert!(body.contains("node_id 0"), "scrape after the pause:\n{body}");
    // …and the pending session claims its slot and completes an op.
    session.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut buf = Vec::new();
    let hello = next_frame(&mut session, &mut buf);
    assert!(matches!(hello, ClientFrame::HelloOk { .. }), "{hello:?}");
    let mut submit = Vec::new();
    wire::encode_client_frame(&ClientFrame::Submit(Op::Read { key: Key(3) }), &mut submit);
    session.write_all(&submit).expect("submit");
    let done = next_frame(&mut session, &mut buf);
    assert!(matches!(done, ClientFrame::Completion(ref c) if c.op_id.seq == 0), "{done:?}");

    drop((scrape, session));
    cluster.shutdown();
}
