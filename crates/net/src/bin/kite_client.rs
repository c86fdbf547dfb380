//! `kite-client`: remote-session workload driver for TCP deployments
//! (the client half of `scripts/e2e_tcp.sh`).
//!
//! Phases:
//!
//! * `mixed` — one remote session per listed server runs a mixed
//!   read/write/release/acquire/FAA/CAS-mutex workload. Every completion
//!   is recorded client-side (single process clock, so real-time edges are
//!   sound) and the history is checked against the **RCLin** axioms; the
//!   FAA counter total and the CAS-mutex-protected cell are verified
//!   exactly. Exit 0 iff everything holds.
//! * `put` — one release write (seeds a convergence sentinel).
//! * `poll` — relaxed-read one key on one node until it shows the expected
//!   value (how the script proves a restarted replica anti-entropy-caught-
//!   up: relaxed reads are local, so the value can only appear through
//!   repair).
//! * `fill` — bulk-load a deterministic key range with relaxed writes,
//!   striped across one session per listed server (how the WAL e2e phase
//!   builds a store big enough that "replay the tail" and "re-replicate
//!   the world" are measurably different).
//! * `hot` — flash-crowd writer: every session hammers ONE hot key with
//!   half its writes (the other half spread over a small cold range),
//!   from all listed servers at once. Pairs with `scrape` so the e2e
//!   script can prove ack coalescing keeps ack msgs/op sub-linear in
//!   node count even when a single key takes the whole cluster's write
//!   traffic (§6.3 of the paper).
//! * `scrape` — connect to a node's `--metrics-addr` endpoint, send one
//!   request line (`scrape`, or `dump` with `--view dump`), print the
//!   response, exit. No session, no protocol — plain TCP.
//! * `reconfig` — operator-facing membership changes: `--action
//!   show|add-learner|promote|retire` (with `--target N` for the
//!   mutators). Reads the current membership from the reserved key
//!   through an ordinary client session, derives the successor config,
//!   and strong-CASes it in — the change rides the same per-key Paxos as
//!   any workload RMW, retrying if a concurrent change wins the race.
//! * `openloop` — one pipelined session per listed server submits the
//!   typical Kite mix on a **fixed arrival schedule** (`--rate` ops/s per
//!   session for `--secs`), never waiting for completions; per-op latency
//!   is measured from the op's *scheduled* arrival, so queueing delay is
//!   included (no coordinated omission). Prints `p50_us=… p99_us=…
//!   p999_us=…` and fails if the run can't complete or the percentiles
//!   blow past sanity bounds.
//!
//! ```text
//! kite-client mixed    --servers a:p,b:p,c:p --slot 0 --ops 40
//! kite-client put      --servers a:p --slot 1 --key 900 --val 7777
//! kite-client poll     --servers c:p --slot 1 --key 900 --val 7777 --timeout-secs 20
//! kite-client fill     --servers a:p,b:p,c:p --slot 2 --key-base 1000 --count 20000
//! kite-client openloop --servers a:p,b:p,c:p --slot 5 --rate 1000 --secs 2
//! kite-client hot      --servers a:p,b:p,c:p --slot 8 --ops 2000 --key-base 40000
//! kite-client scrape   --servers 127.0.0.1:9100 [--view dump]
//! kite-client reconfig --servers a:p --slot 6 --action add-learner --target 3
//! ```

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kite_common::Key;
use kite_net::RemoteSession;
use kite_verify::{check_rc, History, OpKind, OpRecord};

const DATA_BASE: u64 = 100;
const FLAG_BASE: u64 = 200;
const COUNTER: u64 = 300;
const LOCK: u64 = 301;
const CELL: u64 = 302;

fn fail(msg: String) -> ! {
    eprintln!("kite-client: FAIL: {msg}");
    std::process::exit(1);
}

struct Recorder {
    history: Arc<History>,
    base: Instant,
    session: kite_common::SessionId,
    seq: u64,
}

impl Recorder {
    fn record(&mut self, key: Key, kind: OpKind, invoked: Instant, completed: Instant) {
        self.history.record(OpRecord {
            session: self.session,
            session_seq: self.seq,
            key,
            kind,
            invoke: invoked.duration_since(self.base).as_nanos() as u64,
            complete: completed.duration_since(self.base).as_nanos() as u64,
        });
        self.seq += 1;
    }
}

/// Unique nonzero value: sessions stamp their writes so reads-from is
/// unambiguous for the checker.
fn uniq(session_idx: u64, ctr: &mut u64) -> u64 {
    *ctr += 1;
    (session_idx + 1) << 40 | *ctr
}

#[allow(clippy::too_many_arguments)]
fn mixed_session(
    addr: String,
    slot: u32,
    idx: usize,
    n: usize,
    ops: u64,
    key_base: u64,
    history: Arc<History>,
    base: Instant,
) -> Result<(), String> {
    let mut s = RemoteSession::connect(&addr, slot)
        .map_err(|e| format!("connect {addr} slot {slot}: {e}"))?;
    let mut rec = Recorder { history, base, session: s.id(), seq: 0 };
    let mut ctr = 0u64;
    let my_data = Key(key_base + DATA_BASE + idx as u64);
    let my_flag = Key(key_base + FLAG_BASE + idx as u64);
    let peer_flag = Key(key_base + FLAG_BASE + ((idx + 1) % n) as u64);
    let peer_data = Key(key_base + DATA_BASE + ((idx + 1) % n) as u64);
    let counter = Key(key_base + COUNTER);
    let lock = Key(key_base + LOCK);
    let cell = Key(key_base + CELL);
    let my_tag = (idx as u64 + 1) << 56 | 0xA5;
    let e = |e: kite_common::KiteError| format!("session {idx}: {e}");

    for _ in 0..ops {
        // Relaxed write + release of the paired flag (RC handoff pattern).
        let v = uniq(idx as u64, &mut ctr);
        let t0 = Instant::now();
        s.write(my_data, v).map_err(e)?;
        rec.record(my_data, OpKind::Write { v }, t0, Instant::now());
        let f = uniq(idx as u64, &mut ctr);
        let t0 = Instant::now();
        s.release(my_flag, f).map_err(e)?;
        rec.record(my_flag, OpKind::Release { v: f }, t0, Instant::now());

        // Acquire the neighbour's flag, then read their payload.
        let t0 = Instant::now();
        let got = s.acquire(peer_flag).map_err(e)?;
        rec.record(peer_flag, OpKind::Acquire { v: got.as_u64() }, t0, Instant::now());
        let t0 = Instant::now();
        let got = s.read(peer_data).map_err(e)?;
        rec.record(peer_data, OpKind::Read { v: got.as_u64() }, t0, Instant::now());

        // Consensus: shared FAA counter.
        let t0 = Instant::now();
        let old = s.fetch_add(counter, 1).map_err(e)?;
        rec.record(counter, OpKind::Rmw { observed: old, wrote: old + 1 }, t0, Instant::now());

        // Strong-CAS mutex protecting CELL: lock (CAS EMPTY → tag), bump,
        // unlock (release-write EMPTY — the repo's dist_mutex convention).
        // The lock key's ops are NOT recorded (lock/unlock reuse the same
        // values and the checker needs unique writes per key); mutual
        // exclusion is proven by CELL instead, whose increments are unique
        // exactly when critical sections never interleave.
        loop {
            let (ok, _) = s.cas_strong(lock, kite_common::Val::EMPTY, my_tag).map_err(e)?;
            if ok {
                break;
            }
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        let c = s.read(cell).map_err(e)?.as_u64();
        rec.record(cell, OpKind::Read { v: c }, t0, Instant::now());
        let t0 = Instant::now();
        s.write(cell, c + 1).map_err(e)?;
        rec.record(cell, OpKind::Write { v: c + 1 }, t0, Instant::now());
        s.release(lock, kite_common::Val::EMPTY).map_err(e)?;
    }
    Ok(())
}

fn phase_mixed(servers: &[String], slot: u32, ops: u64, key_base: u64) {
    let n = servers.len();
    let history = Arc::new(History::new());
    let base = Instant::now();
    let mut handles = Vec::new();
    for (idx, addr) in servers.iter().enumerate() {
        let addr = addr.clone();
        let history = Arc::clone(&history);
        handles.push(std::thread::spawn(move || {
            mixed_session(addr, slot, idx, n, ops, key_base, history, base)
        }));
    }
    for h in handles {
        if let Err(msg) = h.join().expect("session thread panicked") {
            fail(msg);
        }
    }

    // Exact totals through one fresh verification session on server 0.
    let mut v = RemoteSession::connect(&servers[0], slot + 1)
        .unwrap_or_else(|e| fail(format!("verify session: {e}")));
    let total = v
        .acquire(Key(key_base + COUNTER))
        .unwrap_or_else(|e| fail(format!("counter: {e}")));
    let expect = n as u64 * ops;
    if total.as_u64() != expect {
        fail(format!("FAA counter {} != {} ({} sessions × {} ops)", total.as_u64(), expect, n, ops));
    }
    // Take the mutex once to synchronize with the last holder, then check
    // the protected cell.
    loop {
        let (ok, _) = v
            .cas_strong(Key(key_base + LOCK), kite_common::Val::EMPTY, 0xFEu64)
            .unwrap_or_else(|e| fail(format!("lock: {e}")));
        if ok {
            break;
        }
        std::thread::yield_now();
    }
    let cell = v.read(Key(key_base + CELL)).unwrap_or_else(|e| fail(format!("cell: {e}")));
    // Release the mutex: a later phase reuses these keys with fresh
    // sessions, and an abandoned lock would wedge them.
    v.release(Key(key_base + LOCK), kite_common::Val::EMPTY)
        .unwrap_or_else(|e| fail(format!("unlock: {e}")));
    if cell.as_u64() != expect {
        fail(format!("mutex-protected cell {} != {expect} — critical sections interleaved", cell.as_u64()));
    }

    match check_rc(&history) {
        Ok(()) => println!(
            "kite-client: mixed OK — {} ops across {n} sessions, RC(Lin) checks passed, \
             FAA total {expect}, mutex cell {expect}",
            history.len()
        ),
        Err(err) => fail(format!("RC check failed: {err:?}")),
    }
}

/// Deterministic bulk load: key `key_base + i` gets value `i + 1`, write
/// `i` issued by session `i % servers`. Relaxed writes keep the load on
/// the fast path; the value rule lets any later phase (or a restarted
/// replica's poll) recompute what every key must hold.
fn phase_fill(servers: &[String], slot: u32, key_base: u64, count: u64) {
    let n = servers.len() as u64;
    let mut handles = Vec::new();
    for (idx, addr) in servers.iter().enumerate() {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || -> Result<u64, String> {
            let mut s = RemoteSession::connect(&addr, slot)
                .map_err(|e| format!("connect {addr} slot {slot}: {e}"))?;
            let mut written = 0;
            let mut i = idx as u64;
            while i < count {
                s.write(Key(key_base + i), i + 1).map_err(|e| format!("fill write {i}: {e}"))?;
                written += 1;
                i += n;
            }
            Ok(written)
        }));
    }
    let mut total = 0;
    for h in handles {
        match h.join().expect("fill thread panicked") {
            Ok(w) => total += w,
            Err(msg) => fail(msg),
        }
    }
    println!("kite-client: fill OK — {total} keys from {key_base} across {n} sessions");
}

/// Open-loop latency-under-load probe. Each session's i-th op is drawn
/// from the `MixCfg::typical(0.2)` class ratios (1% release / 4% acquire /
/// 19% write / 76% read) over hashed uniform keys above `key_base`, and is
/// submitted when its fixed schedule slot arrives whether or not earlier
/// ops completed. Sanity bounds are deliberately loose — this must pass on
/// a loaded single-core CI box — but tight enough to catch a wedged fabric
/// (which would otherwise only fail by timeout).
fn phase_openloop(servers: &[String], slot: u32, rate: u64, secs: u64, key_base: u64) {
    use kite::api::Op;
    let ops_per_session = (rate * secs) as usize;
    let interval = Duration::from_nanos(1_000_000_000 / rate.max(1));
    let mut handles = Vec::new();
    for (idx, addr) in servers.iter().enumerate() {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || -> Result<Vec<u64>, String> {
            let mut s = RemoteSession::connect(&addr, slot)
                .map_err(|e| format!("connect {addr} slot {slot}: {e}"))?;
            let e = |e: kite_common::KiteError| format!("openloop session {idx}: {e}");
            let mut sched: std::collections::VecDeque<Instant> = std::collections::VecDeque::new();
            let mut lat_us = Vec::with_capacity(ops_per_session);
            let start = Instant::now();
            let (mut submitted, mut done) = (0usize, 0usize);
            while done < ops_per_session {
                while submitted < ops_per_session {
                    let due = start + interval * submitted as u32;
                    if Instant::now() < due {
                        break;
                    }
                    let v = ((idx as u64 + 1) << 40) | (submitted as u64 + 1);
                    let key = Key(key_base + (v.wrapping_mul(0x9E3779B97F4A7C15) >> 16) % 4096);
                    let r = submitted % 100;
                    let op = if r < 1 {
                        Op::Release { key, val: kite_common::Val::from_u64(v) }
                    } else if r < 5 {
                        Op::Acquire { key }
                    } else if r < 24 {
                        Op::Write { key, val: kite_common::Val::from_u64(v) }
                    } else {
                        Op::Read { key }
                    };
                    sched.push_back(due);
                    s.submit(op).map_err(e)?;
                    submitted += 1;
                }
                match s.poll_completion().map_err(e)? {
                    Some((_c, arrival)) => {
                        let due = sched.pop_front().expect("scheduled time");
                        lat_us.push(arrival.saturating_duration_since(due).as_micros() as u64);
                        done += 1;
                    }
                    None if submitted == ops_per_session => {
                        s.flush().map_err(e)?;
                        let (_c, arrival) = s.next_completion_arrival().map_err(e)?;
                        let due = sched.pop_front().expect("scheduled time");
                        lat_us.push(arrival.saturating_duration_since(due).as_micros() as u64);
                        done += 1;
                    }
                    None => {
                        let next_due = start + interval * submitted as u32;
                        let nap = next_due
                            .saturating_duration_since(Instant::now())
                            .min(Duration::from_millis(1));
                        if !nap.is_zero() {
                            s.wait_event(nap).map_err(e)?;
                        }
                    }
                }
            }
            Ok(lat_us)
        }));
    }
    let mut lat_us: Vec<u64> = Vec::new();
    for h in handles {
        match h.join().expect("openloop thread panicked") {
            Ok(l) => lat_us.extend(l),
            Err(msg) => fail(msg),
        }
    }
    lat_us.sort_unstable();
    let pick = |q: f64| lat_us[((lat_us.len() - 1) as f64 * q).round() as usize];
    let (p50, p99, p999) = (pick(0.50), pick(0.99), pick(0.999));
    // Sanity: p50 under 1 s and p999 under the client's own 30 s op
    // timeout — a healthy fabric is orders of magnitude below both, while
    // a stalled event loop or leaked backpressure pushes the tail into
    // timeout territory.
    if p50 > 1_000_000 || p999 > 30_000_000 {
        fail(format!("openloop latency out of bounds: p50_us={p50} p99_us={p99} p999_us={p999}"));
    }
    println!(
        "kite-client: openloop OK — {} ops @ {rate}/s×{} sessions, \
         p50_us={p50} p99_us={p99} p999_us={p999}",
        lat_us.len(),
        servers.len()
    );
}

/// Flash-crowd writer: 50% of each session's writes land on ONE hot key,
/// the rest on a small cold range, with reads mixed in so the hot key is
/// also read-shared. All listed servers run concurrently and each session
/// keeps a deep pipeline in flight — the §6.3 regime where batching and
/// ack coalescing must keep ack *messages* per op sub-linear in node
/// count even though every hot-key write needs acks from every replica.
fn phase_hot(servers: &[String], slot: u32, ops: u64, key_base: u64) {
    use kite::api::Op;
    const WINDOW: usize = 64;
    let hot = Key(key_base);
    let mut handles = Vec::new();
    for (idx, addr) in servers.iter().enumerate() {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || -> Result<u64, String> {
            let mut s = RemoteSession::connect(&addr, slot)
                .map_err(|e| format!("connect {addr} slot {slot}: {e}"))?;
            let e = |e: kite_common::KiteError| format!("hot session {idx}: {e}");
            let (mut submitted, mut done) = (0u64, 0u64);
            while done < ops {
                while submitted < ops && s.outstanding() < WINDOW {
                    let i = submitted;
                    let v = ((idx as u64 + 1) << 40) | (i + 1);
                    let op = if i % 8 == 7 {
                        Op::Read { key: hot }
                    } else if i % 2 == 0 {
                        Op::Write { key: hot, val: kite_common::Val::from_u64(v) }
                    } else {
                        let cold =
                            Key(key_base + 1 + (v.wrapping_mul(0x9E3779B97F4A7C15) >> 16) % 256);
                        Op::Write { key: cold, val: kite_common::Val::from_u64(v) }
                    };
                    s.submit(op).map_err(e)?;
                    submitted += 1;
                }
                s.flush().map_err(e)?;
                s.next_completion_arrival().map_err(e)?;
                done += 1;
                while s.poll_completion().map_err(e)?.is_some() {
                    done += 1;
                }
            }
            Ok(ops)
        }));
    }
    let mut total = 0;
    for h in handles {
        match h.join().expect("hot thread panicked") {
            Ok(n) => total += n,
            Err(msg) => fail(msg),
        }
    }
    println!(
        "kite-client: hot OK — {total} write-heavy ops across {} sessions, hot key {}",
        servers.len(),
        hot.0
    );
}

/// Scrape a node's metrics endpoint: one request line out, whole response
/// in, printed verbatim. `view` is `scrape` (key-value metrics) or `dump`
/// (watchdog text).
fn phase_scrape(servers: &[String], view: &str) {
    use std::io::{Read as _, Write as _};
    for addr in servers {
        let mut stream = std::net::TcpStream::connect(addr)
            .unwrap_or_else(|e| fail(format!("connect metrics {addr}: {e}")));
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set_read_timeout");
        stream
            .write_all(format!("{view}\n").as_bytes())
            .unwrap_or_else(|e| fail(format!("send request to {addr}: {e}")));
        let mut body = String::new();
        stream
            .read_to_string(&mut body)
            .unwrap_or_else(|e| fail(format!("read response from {addr}: {e}")));
        if body.is_empty() {
            fail(format!("empty {view} response from {addr}"));
        }
        print!("{body}");
    }
}

/// Membership changes through the front door
/// ([`RemoteSession::change_membership`]: read the reserved key, derive
/// the successor, strong-CAS it in, re-derive on a lost race), or `show`
/// the current membership. `cluster_nodes` is only
/// consulted before the *first* committed change, when the key is still
/// empty and the bootstrap membership (all slots voting) must be derived
/// locally — mutating actions then require it explicitly, because
/// guessing the slot count (e.g. from however many servers happen to be
/// listed) would install a wrong voter set cluster-wide.
fn phase_reconfig(
    servers: &[String],
    slot: u32,
    action: &str,
    target: Option<u8>,
    cluster_nodes: Option<usize>,
) {
    use kite_common::{Membership, NodeId, NodeSet, MEMBERSHIP_KEY};
    let mut s = RemoteSession::connect(&servers[0], slot)
        .unwrap_or_else(|e| fail(format!("connect {}: {e}", servers[0])));
    if action == "show" {
        let cur_val =
            s.acquire(MEMBERSHIP_KEY).unwrap_or_else(|e| fail(format!("read membership: {e}")));
        match Membership::from_val(&cur_val) {
            Some(cur) => println!("kite-client: membership {cur}"),
            None => println!(
                "kite-client: membership e0 (bootstrap — no config change committed yet)"
            ),
        }
        return;
    }
    let successor: fn(Membership, NodeId) -> Membership = match action {
        "add-learner" => Membership::with_learner,
        "promote" => Membership::with_promoted,
        "retire" => Membership::with_retired,
        a => fail(format!("unknown reconfig action {a} (show|add-learner|promote|retire)")),
    };
    let node =
        NodeId(target.unwrap_or_else(|| fail(format!("reconfig {action} needs --target N"))));
    let bootstrap = || Membership {
        epoch: 0,
        voters: NodeSet::all(cluster_nodes.unwrap_or_else(|| {
            fail(format!(
                "reconfig {action}: membership key is empty (cluster still on bootstrap); \
                 pass --cluster-nodes N so the bootstrap voter set can be derived"
            ))
        })),
        learners: NodeSet::EMPTY,
    };
    let next = s
        .change_membership(bootstrap, |cur| {
            let next = successor(cur, node);
            if next.voters.is_empty() {
                fail(format!("refusing {action} {node}: successor config has no voters"));
            }
            Some(next)
        })
        .unwrap_or_else(|e| fail(format!("config change: {e}")));
    println!("kite-client: reconfig {action} {node} OK — membership {next}");
}

fn phase_put(servers: &[String], slot: u32, key: u64, val: u64) {
    let mut s = RemoteSession::connect(&servers[0], slot)
        .unwrap_or_else(|e| fail(format!("connect: {e}")));
    s.release(Key(key), val).unwrap_or_else(|e| fail(format!("release: {e}")));
    println!("kite-client: put k{key}={val} OK");
}

fn phase_poll(servers: &[String], slot: u32, key: u64, val: u64, timeout: Duration) {
    let mut s = RemoteSession::connect(&servers[0], slot)
        .unwrap_or_else(|e| fail(format!("connect: {e}")));
    let deadline = Instant::now() + timeout;
    let mut last = 0;
    while Instant::now() < deadline {
        last = s.read(Key(key)).unwrap_or_else(|e| fail(format!("read: {e}"))).as_u64();
        if last == val {
            println!("kite-client: poll k{key}={val} OK (converged)");
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    fail(format!("k{key} never converged to {val} within {timeout:?} (last saw {last})"));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(phase) = args.first().cloned() else {
        eprintln!("usage: kite-client <mixed|put|poll|fill|openloop|hot|scrape|reconfig> --servers a,b,c [--slot N] [--ops N] [--key K] [--val V] [--timeout-secs T] [--key-base K] [--count N] [--rate R] [--secs S] [--view scrape|dump] [--action show|add-learner|promote|retire] [--target N] [--cluster-nodes K]");
        std::process::exit(2);
    };
    let mut opts: HashMap<String, String> = HashMap::new();
    let mut i = 1;
    while i < args.len() {
        let (Some(flag), Some(value)) = (args[i].strip_prefix("--"), args.get(i + 1)) else {
            eprintln!("kite-client: bad args near {:?}", args.get(i));
            std::process::exit(2);
        };
        opts.insert(flag.to_string(), value.clone());
        i += 2;
    }
    let servers: Vec<String> = opts
        .get("servers")
        .unwrap_or_else(|| fail("--servers required".into()))
        .split(',')
        .map(|s| s.trim().to_string())
        .collect();
    let slot: u32 = opts.get("slot").map(|v| v.parse().expect("slot")).unwrap_or(0);
    let num = |k: &str, d: u64| opts.get(k).map(|v| v.parse().expect(k)).unwrap_or(d);

    match phase.as_str() {
        "mixed" => phase_mixed(&servers, slot, num("ops", 25), num("key-base", 0)),
        "fill" => phase_fill(&servers, slot, num("key-base", 1000), num("count", 10_000)),
        "openloop" => phase_openloop(
            &servers,
            slot,
            num("rate", 1_000),
            num("secs", 2),
            num("key-base", 20_000),
        ),
        "hot" => phase_hot(&servers, slot, num("ops", 2_000), num("key-base", 40_000)),
        "scrape" => phase_scrape(&servers, opts.get("view").map_or("scrape", |v| v.as_str())),
        "reconfig" => phase_reconfig(
            &servers,
            slot,
            opts.get("action").map_or("show", |v| v.as_str()),
            opts.get("target").map(|v| v.parse().expect("target")),
            opts.get("cluster-nodes").map(|v| v.parse().expect("cluster-nodes")),
        ),
        "put" => phase_put(&servers, slot, num("key", 900), num("val", 7777)),
        "poll" => phase_poll(
            &servers,
            slot,
            num("key", 900),
            num("val", 7777),
            Duration::from_secs(num("timeout-secs", 20)),
        ),
        p => {
            eprintln!("kite-client: unknown phase {p}");
            std::process::exit(2);
        }
    }
}
