//! Property test of the pipelined client's reorder window over a real
//! socket: a mock server completes a deep window of submitted ops in a
//! seeded-shuffled order with injected duplicate frames, and the client
//! must retire every op in session order, attribute each completion to
//! exactly the op that produced it, and count (not deliver) the
//! duplicates. This is the socket-path twin of the window bookkeeping the
//! sync API relies on.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::thread::JoinHandle;

use kite::api::{Completion, Op, OpOutput};
use kite::wire::{self, ClientFrame, Hello, HELLO_LEN};
use kite_common::{Key, NodeId, OpId, SessionId, Val};
use kite_net::RemoteSession;
use kite_verify::check::check;

/// The value the mock server reports for op `seq` — seq-dependent so a
/// misattributed completion is always detectable.
fn expected_val(seq: u64) -> u64 {
    seq.wrapping_mul(31).wrapping_add(7)
}

/// A one-connection mock node: handshake, read `order.len()` submissions,
/// then answer them in `order`, sending the frames `dup` marks twice.
/// Returns the number of duplicate frames it injected.
fn mock_server(listener: TcpListener, order: Vec<u64>, dup: Vec<bool>) -> JoinHandle<u64> {
    std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept client");
        let mut hello = [0u8; HELLO_LEN];
        conn.read_exact(&mut hello).expect("read hello");
        let slot = match wire::decode_hello(&hello) {
            Ok(Hello::Client { slot }) => slot,
            other => panic!("expected client hello, got {other:?}"),
        };
        let session = SessionId::new(NodeId(0), slot);
        let mut frame = Vec::new();
        wire::encode_client_frame(&ClientFrame::HelloOk { session }, &mut frame);
        conn.write_all(&frame).expect("send hello ok");

        // Collect the whole window of submissions; TCP preserves the
        // client's submission (= seq) order.
        let n_ops = order.len();
        let mut ops: Vec<Op> = Vec::with_capacity(n_ops);
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 64 << 10];
        while ops.len() < n_ops {
            let n = conn.read(&mut chunk).expect("read submits");
            assert!(n > 0, "client closed before submitting the window");
            buf.extend_from_slice(&chunk[..n]);
            let mut rest = &buf[..];
            while let Some((body, tail)) = wire::next_frame(rest).expect("client frame") {
                match wire::decode_client_frame(body) {
                    Ok(ClientFrame::Submit(op)) => ops.push(op),
                    other => panic!("expected submit, got {other:?}"),
                }
                rest = tail;
            }
            let used = buf.len() - rest.len();
            buf.drain(..used);
        }

        let mut dups = 0u64;
        for (&seq, &twice) in order.iter().zip(&dup) {
            let completion = Completion {
                op_id: OpId::new(session, seq),
                op: ops[seq as usize].clone(),
                output: OpOutput::Value(Val::from_u64(expected_val(seq))),
                invoked_at: seq,
                completed_at: seq + 1,
            };
            frame.clear();
            wire::encode_client_frame(&ClientFrame::Completion(completion), &mut frame);
            let repeats = if twice { 2 } else { 1 };
            dups += repeats - 1;
            for _ in 0..repeats {
                conn.write_all(&frame).expect("send completion");
            }
        }
        // Hold the connection open until the client hangs up, so the tail
        // of the window is never cut short by an early close.
        let mut sink = [0u8; 1024];
        while matches!(conn.read(&mut sink), Ok(n) if n > 0) {}
        dups
    })
}

/// Any shuffle + duplication of a deep window's completions retires in
/// exact session order with exact per-seq attribution.
#[test]
fn shuffled_duplicated_completions_resolve_by_seq() {
    check(16, |src| {
        // The server completes every op, shuffled (Fisher–Yates) and with
        // ~1 in 4 frames sent twice.
        let n_ops = src.range(2..256) as usize;
        let mut order: Vec<u64> = (0..n_ops as u64).collect();
        for i in (1..n_ops).rev() {
            order.swap(i, src.below(i as u64 + 1) as usize);
        }
        let dup: Vec<bool> = (0..n_ops).map(|_| src.below(4) == 0).collect();
        let expected_dups = dup.iter().filter(|&&d| d).count() as u64;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = mock_server(listener, order, dup);

        let mut s = RemoteSession::connect(&addr, 3).expect("connect");
        assert_eq!(s.id(), SessionId::new(NodeId(0), 3));

        // Fill the whole pipeline before reaping anything: every op is
        // outstanding at once, so the server's shuffle spans the full
        // window depth.
        for seq in 0..n_ops as u64 {
            let got = s.submit(Op::Write { key: Key(seq), val: Val::from_u64(seq) }).unwrap();
            assert_eq!(got, seq);
        }
        s.flush().unwrap();
        assert_eq!(s.outstanding(), n_ops);

        // Retirement must come back in seq order, each completion carrying
        // exactly its own op and its own seq-derived output.
        for seq in 0..n_ops as u64 {
            let c = s.next_completion().expect("completion");
            assert_eq!(c.op_id.seq, seq);
            assert_eq!(c.op.key(), Key(seq));
            match c.output {
                OpOutput::Value(v) => assert_eq!(v.as_u64(), expected_val(seq)),
                other => panic!("unexpected output {other:?}"),
            }
        }
        assert_eq!(s.outstanding(), 0);

        // Pump until the client has absorbed (and counted) every duplicate
        // frame: trailing dups may still be in flight when the last op
        // retires.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while s.duplicates() < expected_dups && std::time::Instant::now() < deadline {
            assert!(s.poll_completion().unwrap().is_none());
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(s.duplicates(), expected_dups);

        drop(s); // hang up so the server thread's drain loop ends
        let injected = server.join().expect("server thread");
        assert_eq!(injected, expected_dups);
    });
}
