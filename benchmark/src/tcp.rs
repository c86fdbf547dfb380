//! The two wall-clock workloads: three real `kite-node` processes over
//! loopback TCP (no injected delay — latency here is processor and
//! scheduler time only), driven from this one process by two generator
//! threads holding one `RemoteSession` each.
//!
//! * `tcp_typical_open` — the paper's headline mix, WAL off.
//! * `tcp_sync_wal_open` — write-heavy Zipf mix with RMWs, WAL on;
//!   afterwards node 2 is SIGKILLed, restarted on its WAL directory and
//!   polled to convergence.
//!
//! Both run on a seeded open-loop schedule at a fixed mean rate and time
//! latency from each op's *due* time. Closed-loop saturation was tried and
//! dropped: on the 2-core reference host its throughput spread 15 % between
//! runs (quartile distance over the median, ten seeds) and its latency
//! 12 %, against 1–3 % for CPU per op and median latency at a fixed rate.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use kite::api::{Op, OpOutput};
use kite_common::rng::SplitMix64;
use kite_common::{Key, Val};
use kite_net::RemoteSession;
use kite_workloads::MixCfg;

use crate::daemons::{Cluster, Spec};
use crate::gen::{self, Litmus, Role};
use crate::layers::{self, Outcome};
use crate::procfs;
use crate::scrape::{self, Scrape};
use crate::stats;
use crate::trace::{Span, Tracer};

const NODES: usize = 3;
const KEYS: usize = 1 << 16;
/// Generator threads = connections = `nproc` of the reference host.
const CONNS: usize = 2;
const WARMUP: Duration = Duration::from_secs(2);
/// Check ops recur every this many ops per connection (5 in 1024 < 1 %).
const PERIOD: u64 = 1024;
/// Traced runs record op and iteration spans for one in this many.
const SAMPLE_EVERY: u64 = 8;
/// Cluster set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Throughput is the median over this many equal windows of the run.
const WINDOWS: usize = 5;
/// The longest a generator thread sleeps while its schedule runs: with the
/// kernel's ~55 µs of timer slack it looks at its socket about every
/// 105 µs. At 100 µs an op fell due mid-sleep often enough to put p99
/// lateness on either side of the 200 µs guard (157–232 µs); at 50 µs it
/// reads 154–170 µs, for the same daemon CPU per op.
const IDLE_POLL: Duration = Duration::from_micros(50);
/// After the load stops, ops still unfinished this long later have failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);
/// Replicas must agree on the key sample / catch up within this long.
const CONVERGE_DEADLINE: Duration = Duration::from_secs(20);
/// Open-loop lateness (submit − due) p99 above this makes the latency rows
/// suspect; every result file says which side of it the run fell.
const LATE_GUARD_US: f64 = 200.0;
/// Keys read back at every replica after the load stops.
const SAMPLE_KEYS: u64 = 1024;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    TypicalOpen,
    SyncWalOpen,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::TypicalOpen => "tcp_typical_open",
            Kind::SyncWalOpen => "tcp_sync_wal_open",
        }
    }

    fn mix(self) -> MixCfg {
        match self {
            // 76 % reads, 19 % writes, 1 % releases, 4 % acquires, uniform.
            Kind::TypicalOpen => MixCfg::typical(0.2, KEYS as u64),
            // 10 % FAA, 10 % releases, 40 % writes, 8 % acquires, 32 %
            // reads over Zipf(0.99)-conflicting keys.
            Kind::SyncWalOpen => MixCfg {
                write_ratio: 0.6,
                sync_frac: 0.2,
                rmw_frac: 0.1,
                keys: KEYS as u64,
                val_len: 32,
                skew_theta: 0.99,
            },
        }
    }

    /// Mean ops per second per connection: constants, never auto-tuned, low
    /// enough that the daemons (0.7 and 0.85 of the reference host's 2
    /// cores, much of it idle wake-ups) never build a backlog. At twice
    /// the WAL rate one run in eighteen did, and read p50 1 ms for 0.3.
    fn rate_per_conn(self) -> u64 {
        match self {
            Kind::TypicalOpen => 8_000,
            Kind::SyncWalOpen => 2_000,
        }
    }

    /// How ops arrive. A generator thread sees a completion only when it
    /// next wakes: at a due time, or an [`IDLE_POLL`] into a longer gap.
    /// The typical workload's mean gap (125 µs) is about as long as that,
    /// so on a fixed interval the wake-ups locked to the schedule and
    /// latency read in steps of one interval — blind to any change within
    /// a step, and with p90 on a step's edge (275–358 µs from run to run).
    /// Exponential gaps (independent users) break the lock. The WAL
    /// workload's gap (500 µs) spans several wake-ups, so there is no
    /// staircase, and bursts of its heavy ops queue behind Paxos rounds and
    /// fsyncs on the Zipf-hot keys: Poisson arrivals spread its median
    /// latency 23 % between runs against 8 % on the fixed interval.
    fn arrivals(self, seed: u64) -> Arrivals {
        match self {
            Kind::TypicalOpen => Arrivals::Poisson(SplitMix64::new(seed)),
            Kind::SyncWalOpen => Arrivals::Fixed,
        }
    }

    fn wal(self) -> bool {
        self == Kind::SyncWalOpen
    }
}

/// Connection 0 produces pair 0 and consumes pair 1, connection 1 the
/// reverse; both bump the counter.
fn role_of(conn: usize) -> Role {
    Role {
        produce: Some(conn as u64),
        consume: Some(1 - conn as u64),
        faa: true,
        period: PERIOD,
    }
}

// ---- the open-loop schedule ------------------------------------------------

/// The gaps between arrivals.
pub enum Arrivals {
    /// Every gap is the mean interval.
    Fixed,
    /// Exponential gaps around the mean interval, drawn from this stream.
    Poisson(SplitMix64),
}

/// An arrival schedule in nanoseconds from the run's start, at a fixed
/// mean rate: each op is due one gap after the one before it, whether or
/// not earlier ops completed. The same seed gives the same schedule.
pub struct Pacer {
    interval_ns: u64,
    arrivals: Arrivals,
    due_ns: u64,
}

impl Pacer {
    pub fn new(rate_per_s: u64, arrivals: Arrivals) -> Pacer {
        Pacer {
            interval_ns: 1_000_000_000 / rate_per_s,
            arrivals,
            due_ns: 0,
        }
    }

    /// The due time of the next op if it is due by `now_ns` and falls
    /// before `end_ns`; handing it out advances the schedule.
    pub fn take_due(&mut self, now_ns: u64, end_ns: u64) -> Option<u64> {
        let due = self.due_ns;
        (due <= now_ns && due < end_ns).then(|| {
            self.due_ns += match &mut self.arrivals {
                Arrivals::Fixed => self.interval_ns,
                Arrivals::Poisson(rng) => {
                    // Uniform in (0, 1), so the logarithm is finite.
                    let u = ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
                    (-u.ln() * self.interval_ns as f64) as u64
                }
            };
            due
        })
    }

    /// When the next op falls due.
    pub fn next_due(&self) -> u64 {
        self.due_ns
    }
}

// ---- one generator thread ---------------------------------------------------

/// Run phases as offsets (ns) from the instant the generators start.
#[derive(Clone, Copy)]
struct Clock {
    start: Instant,
    measure_ns: u64,
    end_ns: u64,
}

impl Clock {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn instant(&self, ns: u64) -> Instant {
        self.start + Duration::from_nanos(ns)
    }

    /// Traced runs record spans and time calls in every other second of
    /// the measured window, so one run holds both sides of the overhead.
    fn traced_second(&self, ns: u64) -> bool {
        ns >= self.measure_ns && ((ns - self.measure_ns) / 1_000_000_000).is_multiple_of(2)
    }
}

/// Summed duration and call count of one timed call site.
#[derive(Clone, Copy, Default)]
struct Timer {
    ns: u64,
    calls: u64,
}

impl Timer {
    fn add(&mut self, from: Instant, to: Instant) {
        self.ns += (to - from).as_nanos() as u64;
        self.calls += 1;
    }

    fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }

    fn merge(&mut self, o: Timer) {
        self.ns += o.ns;
        self.calls += o.calls;
    }
}

struct Pending {
    /// When the op was due, ns from the clock's start: what its latency is
    /// timed from.
    due_ns: u64,
    measured: bool,
    traced: bool,
    /// `(trace id, reserved root span id, submit-return instant)` of a
    /// sampled op.
    span: Option<(u64, u64, Instant)>,
}

/// One measured op's latency.
struct Sample {
    /// The second of the measured window the op was due in.
    second: u32,
    /// Submitted in a traced second of a traced run.
    traced: bool,
    lat_ns: u64,
}

/// Everything one generator thread hands back.
#[derive(Default)]
struct Lane {
    attempted: u64,
    completed: u64,
    /// Latency of every measured op.
    samples: Vec<Sample>,
    /// How late each measured op was submitted (ns).
    late_ns: Vec<u64>,
    /// Arrival of each measured op's completion, ns from the window start.
    stamps_ns: Vec<u64>,
    litmus: Litmus,
    next_op: Timer,
    submit: Timer,
    flush: Timer,
    poll: Timer,
    submitted_traced: u64,
    duplicates: u64,
    spans: Vec<Span>,
    error: Option<String>,
}

fn drive(
    conn: usize,
    mut s: RemoteSession,
    mut next: impl FnMut(u64) -> Op,
    mut pacer: Pacer,
    clock: Clock,
    trace: bool,
    epoch: Instant,
) -> Lane {
    let mut lane = Lane {
        litmus: Litmus::new(CONNS),
        ..Lane::default()
    };
    let mut tracer = Tracer::new(epoch, conn as u64 + 1);
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let (mut seq, mut iteration) = (0u64, 0u64);
    let e = |what: &str, e: kite_common::KiteError| format!("connection {conn}: {what}: {e}");
    let drain_by = clock.end_ns + DRAIN_DEADLINE.as_nanos() as u64;

    let result: Result<(), String> = (|| {
        loop {
            let now = clock.now_ns();
            if now >= clock.end_ns && pending.is_empty() || now >= drain_by {
                return Ok(());
            }
            let timed = trace && clock.traced_second(now);
            iteration += 1;
            let iter_span = (timed && iteration % SAMPLE_EVERY == 0)
                .then(|| (tracer.id(), tracer.id(), Instant::now()));
            let (mut iter_next, mut iter_submit) = (Timer::default(), Timer::default());

            // -- submit everything that has fallen due
            let mut submitted = 0u64;
            while let Some(due_ns) = pacer.take_due(now, clock.end_ns) {
                let t0 = Instant::now();
                let op = next(seq);
                let t1 = if timed { Instant::now() } else { t0 };
                s.submit(op).map_err(|err| e("submit", err))?;
                let mut span = None;
                if timed {
                    let t2 = Instant::now();
                    lane.next_op.add(t0, t1);
                    lane.submit.add(t1, t2);
                    iter_next.add(t0, t1);
                    iter_submit.add(t1, t2);
                    lane.submitted_traced += 1;
                    if seq % SAMPLE_EVERY == 0 {
                        let (id, root) = (tracer.id(), tracer.id());
                        tracer.record(id, root, "gen.late", clock.instant(due_ns), t0);
                        tracer.record(id, root, "workloads.next_op", t0, t1);
                        tracer.record(id, root, "client.submit", t1, t2);
                        span = Some((id, root, t2));
                    }
                }
                let measured = due_ns >= clock.measure_ns;
                if measured {
                    lane.late_ns
                        .push(((t0 - clock.start).as_nanos() as u64).saturating_sub(due_ns));
                }
                pending.push_back(Pending {
                    due_ns,
                    measured,
                    traced: timed,
                    span,
                });
                seq += 1;
                submitted += 1;
            }
            lane.attempted = seq;
            if submitted > 0 {
                let f0 = Instant::now();
                s.flush().map_err(|err| e("flush", err))?;
                if timed {
                    let f1 = Instant::now();
                    lane.flush.add(f0, f1);
                    if let Some((id, root, _)) = iter_span {
                        tracer.record(id, root, "client.flush", f0, f1);
                    }
                }
            }

            // -- take every completion that has arrived
            let p0 = Instant::now();
            let mut polls = 0u64;
            loop {
                polls += 1;
                let Some((c, arrival)) = s.poll_completion().map_err(|err| e("poll", err))? else {
                    break;
                };
                let p = pending
                    .pop_front()
                    .ok_or_else(|| format!("connection {conn}: completion with nothing pending"))?;
                lane.completed += 1;
                lane.litmus.observe(&c);
                if !matches!(
                    c.output,
                    OpOutput::Done | OpOutput::Value(_) | OpOutput::Faa(_)
                ) {
                    return Err(format!(
                        "connection {conn}: unexpected output {:?}",
                        c.output
                    ));
                }
                let arrival_ns = (arrival - clock.start).as_nanos() as u64;
                if p.measured {
                    lane.samples.push(Sample {
                        second: ((p.due_ns - clock.measure_ns) / 1_000_000_000) as u32,
                        traced: p.traced,
                        lat_ns: arrival_ns.saturating_sub(p.due_ns),
                    });
                    lane.stamps_ns
                        .push(arrival_ns.saturating_sub(clock.measure_ns));
                }
                if let Some((id, root, submitted_at)) = p.span {
                    tracer.record(id, root, "node.service", submitted_at, arrival);
                    tracer.record_as(root, id, 0, "op", clock.instant(p.due_ns), arrival);
                }
            }
            if timed {
                let p1 = Instant::now();
                lane.poll.ns += (p1 - p0).as_nanos() as u64;
                lane.poll.calls += polls;
                if let Some((id, root, i0)) = iter_span {
                    let start = tracer.at(i0);
                    tracer.record_ns(
                        id,
                        root,
                        "workloads.next_op",
                        start,
                        start + iter_next.ns,
                        iter_next.calls,
                    );
                    tracer.record_ns(
                        id,
                        root,
                        "client.submit",
                        start + iter_next.ns,
                        start + iter_next.ns + iter_submit.ns,
                        iter_submit.calls,
                    );
                    tracer.record(id, root, "client.poll", p0, p1);
                    tracer.record_as(root, id, 0, "gen.iter", i0, p1);
                }
            }

            // -- wait for the next due op. The gap is sub-millisecond, so a
            // plain sleep: `wait_event` rounds every wait up to 1 ms. Once
            // the schedule has ended, wait on the socket instead.
            let now = clock.now_ns();
            if now < clock.end_ns {
                let nap = Duration::from_nanos(pacer.next_due().saturating_sub(now));
                if !nap.is_zero() {
                    std::thread::sleep(nap.min(IDLE_POLL));
                }
            } else if !pending.is_empty() {
                s.wait_event(Duration::from_millis(1))
                    .map_err(|err| e("wait", err))?;
            }
        }
    })();
    lane.error = result.err();
    lane.duplicates = s.duplicates();
    lane.spans = tracer.spans;
    lane
}

// ---- set-up -------------------------------------------------------------------

/// The value key `k` is preloaded with: 32 seeded bytes.
fn preload_val(seed: u64, k: u64) -> Val {
    gen::val32(&mut SplitMix64::new(
        seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    ))
}

/// Pipelined relaxed writes of this connection's stripe of the key space.
fn preload(s: &mut RemoteSession, conn: usize, seed: u64) -> Result<(), String> {
    let e = |err: kite_common::KiteError| format!("preload on connection {conn}: {err}");
    let mut outstanding = 0usize;
    for k in (conn as u64..KEYS as u64).step_by(CONNS) {
        s.submit(Op::Write {
            key: Key(k),
            val: preload_val(seed, k),
        })
        .map_err(e)?;
        outstanding += 1;
        if outstanding == 512 {
            s.flush().map_err(e)?;
            while outstanding > 256 {
                s.next_completion().map_err(e)?;
                outstanding -= 1;
            }
        }
    }
    s.flush().map_err(e)?;
    for _ in 0..outstanding {
        s.next_completion().map_err(e)?;
    }
    Ok(())
}

/// Spawn the cluster, connect the load connections, preload the key space.
fn set_up(kind: Kind, seed: u64, dir: &Path) -> Result<(Cluster, Vec<RemoteSession>), String> {
    let wal_dir = dir.join("wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let cluster = Cluster::launch(Spec {
        nodes: NODES,
        keys: KEYS,
        sessions: 16,
        wal_dir: kind.wal().then_some(wal_dir),
        log_dir: dir.to_path_buf(),
    })?;
    let mut sessions = Vec::with_capacity(CONNS);
    for conn in 0..CONNS {
        let s = RemoteSession::connect(&cluster.peers[conn], 0)
            .map_err(|e| format!("connect to node {conn}: {e}"))?;
        sessions.push(s);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .enumerate()
            .map(|(conn, s)| scope.spawn(move || preload(s, conn, seed)))
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("preload thread panicked"))
    })?;
    Ok((cluster, sessions))
}

// ---- accounting from outside the daemons --------------------------------------

/// Scrape views and `/proc` readings of every daemon at one instant.
struct Snapshot {
    scrapes: Vec<Scrape>,
    cpu_us: (u64, u64),
    write_syscalls: u64,
    switches: u64,
}

fn snapshot(cluster: &Cluster) -> Result<Snapshot, String> {
    let pids = cluster.pids();
    let sum = |f: fn(u32) -> Option<u64>, what: &str| -> Result<u64, String> {
        pids.iter()
            .map(|p| f(*p).ok_or_else(|| format!("read {what} of pid {p}")))
            .sum()
    };
    let mut cpu_us = (0, 0);
    for p in &pids {
        let (u, s) = procfs::cpu_us(*p).ok_or_else(|| format!("read /proc/{p}/stat"))?;
        cpu_us = (cpu_us.0 + u, cpu_us.1 + s);
    }
    Ok(Snapshot {
        scrapes: cluster.scrape_all()?,
        cpu_us,
        write_syscalls: sum(procfs::write_syscalls, "io")?,
        switches: sum(procfs::voluntary_switches, "status")?,
    })
}

/// Pipelined relaxed reads of `keys` on one node (local to that replica).
fn read_keys(s: &mut RemoteSession, keys: &[Key]) -> Result<Vec<Val>, String> {
    let e = |err: kite_common::KiteError| format!("sample read: {err}");
    for k in keys {
        s.submit(Op::Read { key: *k }).map_err(e)?;
    }
    s.flush().map_err(e)?;
    keys.iter()
        .map(|_| match s.next_completion().map_err(e)?.output {
            OpOutput::Value(v) => Ok(v),
            other => Err(format!("sample read completed with {other:?}")),
        })
        .collect()
}

/// The fixed sample: a stride over the mix's key space plus every key the
/// checks own.
fn sample_keys() -> Vec<Key> {
    let stride = KEYS as u64 / (SAMPLE_KEYS - 8);
    let mut keys: Vec<Key> = (0..SAMPLE_KEYS - 8).map(|i| Key(i * stride)).collect();
    keys.push(gen::COUNTER);
    for p in 0..CONNS as u64 {
        keys.extend([gen::data_key(p), gen::flag_key(p)]);
    }
    keys
}

/// Read the sample at every listed reader until all agree; the agreed
/// values and how long agreement took.
fn converge(readers: &mut [RemoteSession], keys: &[Key]) -> Result<(Vec<Val>, Duration), String> {
    let start = Instant::now();
    loop {
        let images = readers
            .iter_mut()
            .map(|s| read_keys(s, keys))
            .collect::<Result<Vec<_>, _>>()?;
        let differing = images[1..]
            .iter()
            .map(|im| im.iter().zip(&images[0]).filter(|(a, b)| a != b).count())
            .max();
        if differing.unwrap_or(0) == 0 {
            return Ok((
                images.into_iter().next().expect("at least one reader"),
                start.elapsed(),
            ));
        }
        if start.elapsed() > CONVERGE_DEADLINE {
            return Err(format!(
                "replicas still differ on {differing:?} sampled keys after {CONVERGE_DEADLINE:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Coarse class latency from a node's cumulative log₂ histogram view: the
/// value on the node that served the most ops of the class, in µs.
fn class_us(scrapes: &[Scrape], class: &str, q: &str) -> f64 {
    scrapes
        .iter()
        .max_by_key(|s| s.get(&format!("op_{class}_latency_ns_count")))
        .map_or(0.0, |s| {
            s.get(&format!("op_{class}_latency_ns_{q}")) as f64 / 1e3
        })
}

// ---- the run --------------------------------------------------------------------

pub fn run(kind: Kind, seed: u64, seconds: u64, trace: bool, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    if let Err(err) = run_inner(kind, seed, seconds, trace, out_dir, &mut out) {
        out.check("run completed", false, err);
        out.failed = out.failed.max(1);
        out.attempted = out.attempted.max(1);
        // Every end-to-end metric must still be present for the result line.
        if !trace && out.metrics.is_empty() {
            out.metrics = crate::manifest::END_TO_END
                .iter()
                .map(|m| (m.name, 0.0))
                .collect();
        }
    }
    out
}

fn run_inner(
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = out_dir.join(kind.name());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let epoch = Instant::now();

    // ---- set-up, several times; the last cluster carries the run ---------
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(set_up(kind, seed, &dir)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (mut cluster, sessions) = rig.expect("SETUPS > 0");
    if kind.wal() {
        out.notes
            .push(("wal_dir_filesystem".into(), procfs::fs_type(&dir)));
    }

    // ---- load: warm-up, then the measured window --------------------------
    let clock = Clock {
        start: Instant::now(),
        measure_ns: WARMUP.as_nanos() as u64,
        end_ns: (WARMUP + Duration::from_secs(seconds)).as_nanos() as u64,
    };
    let mix = kind.mix();
    let (lanes, a, b, edges, ring_max, lag_max) = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(conn, s)| {
                let lane_seed = seed ^ ((conn as u64 + 1) * 0x9E37);
                let stream = gen::stream(mix, lane_seed, role_of(conn));
                let pacer = Pacer::new(kind.rate_per_conn(), kind.arrivals(!lane_seed));
                scope.spawn(move || drive(conn, s, stream, pacer, clock, trace, epoch))
            })
            .collect();
        // The main thread only reads the daemons from outside: their
        // counters at both edges of the window, their CPU time at every
        // second's edge, and (traced runs) queue depths once a second.
        let sleep_until = |ns: u64| {
            std::thread::sleep(clock.instant(ns).saturating_duration_since(Instant::now()))
        };
        sleep_until(clock.measure_ns);
        let a = snapshot(&cluster);
        let (mut ring_max, mut lag_max) = (0u64, 0u64);
        let mut edges = Vec::with_capacity(seconds as usize + 1);
        for second in 0..=seconds {
            sleep_until(clock.measure_ns + second * 1_000_000_000);
            let cpu_ns: Option<u64> = cluster.pids().iter().map(|p| procfs::run_ns(*p)).sum();
            edges.push((clock.now_ns().saturating_sub(clock.measure_ns), cpu_ns));
            if trace && 0 < second && second < seconds {
                for s in cluster.scrape_all().unwrap_or_default() {
                    ring_max = ring_max.max(s.links_max("ring_frames"));
                    lag_max = lag_max.max(s.get("wal_lag_bytes"));
                }
            }
        }
        let b = snapshot(&cluster);
        let lanes: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        (lanes, a, b, edges, ring_max, lag_max)
    });
    let (a, b) = (a?, b?);

    // ---- accounting --------------------------------------------------------
    let check_t = Instant::now();
    out.attempted = lanes.iter().map(|l| l.attempted).sum();
    let completed: u64 = lanes.iter().map(|l| l.completed).sum();
    out.failed = out.attempted - completed;
    let errors: Vec<&str> = lanes.iter().filter_map(|l| l.error.as_deref()).collect();
    out.check("generators ran clean", errors.is_empty(), errors.join("; "));
    out.check(
        "every attempted op completed",
        out.failed == 0,
        format!("{} attempted, {completed} completed", out.attempted),
    );
    if out.failed > 0 {
        out.notes.extend(cluster.dumps());
    }
    let mut litmus = Litmus::new(CONNS);
    let (mut samples, mut late, mut stamps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut next_op, mut submit, mut flush, mut poll) = (
        Timer::default(),
        Timer::default(),
        Timer::default(),
        Timer::default(),
    );
    let (mut duplicates, mut submitted_traced) = (0, 0);
    for l in lanes {
        litmus.merge(l.litmus);
        samples.extend(l.samples);
        late.extend(l.late_ns);
        stamps.extend(l.stamps_ns);
        next_op.merge(l.next_op);
        submit.merge(l.submit);
        flush.merge(l.flush);
        poll.merge(l.poll);
        duplicates += l.duplicates;
        submitted_traced += l.submitted_traced;
        out.spans.extend(l.spans);
    }

    // ---- output checks -----------------------------------------------------
    out.check(
        "release/acquire litmus",
        litmus.violations == 0 && litmus.pairs_checked > 0,
        format!(
            "{} violations in {} consumer reads",
            litmus.violations, litmus.pairs_checked
        ),
    );
    let keys = sample_keys();
    let mut readers = Vec::with_capacity(NODES);
    for (n, peer) in cluster.peers.iter().enumerate() {
        readers.push(
            RemoteSession::connect(peer, 1)
                .map_err(|e| format!("connect reader to node {n}: {e}"))?,
        );
    }
    let (agreed, took) = converge(&mut readers, &keys)?;
    out.check(
        "replicas agree on the key sample",
        true,
        format!(
            "{} keys identical at {NODES} replicas after {took:?}",
            keys.len()
        ),
    );
    let value_of = |image: &[Val], key: Key| {
        image[keys.iter().position(|k| *k == key).expect("sampled key")].as_u64()
    };
    let counter = value_of(&agreed, gen::COUNTER);
    out.check(
        "FAA counter equals acknowledged FAAs",
        counter == litmus.faa_acked && litmus.faa_dupes == 0 && litmus.faa_acked > 0,
        format!(
            "counter {counter}, {} acknowledged, {} duplicate pre-images",
            litmus.faa_acked, litmus.faa_dupes
        ),
    );
    let end_scrapes = cluster.scrape_all()?;
    let decode_errors = scrape::sum(&end_scrapes).links("decode_errors");
    out.check(
        "no frame failed to decode",
        decode_errors == 0,
        format!("{decode_errors} decode errors"),
    );

    // ---- SIGKILL node 2, restart it on its WAL directory -------------------
    let (mut replayed, mut restart_ms, mut catchup_ms) = (0.0, 0.0, 0.0);
    if kind.wal() {
        let victim = NODES - 1;
        drop(readers.pop());
        cluster.kill(victim);
        let t = Instant::now();
        cluster.start(victim)?;
        cluster.wait_ready(victim)?;
        restart_ms = t.elapsed().as_secs_f64() * 1e3;
        let log = cluster.log(victim);
        replayed = log
            .lines()
            .rev()
            .find_map(|l| {
                l.split_once("wal_records=")?
                    .1
                    .split_whitespace()
                    .next()?
                    .parse::<f64>()
                    .ok()
            })
            .unwrap_or(0.0);
        let snapshot_entries = log
            .lines()
            .rev()
            .find_map(|l| {
                l.split_once("snapshot_entries=")?
                    .1
                    .split_whitespace()
                    .next()?
                    .parse::<f64>()
                    .ok()
            })
            .unwrap_or(0.0);
        out.check(
            "the restart recovered from the WAL directory",
            replayed + snapshot_entries > 0.0,
            format!("{snapshot_entries} snapshot entries, {replayed} WAL records replayed"),
        );
        let mut back = RemoteSession::connect(&cluster.peers[victim], 1)
            .map_err(|e| format!("connect to restarted node: {e}"))?;
        let start = Instant::now();
        let image = loop {
            let image = read_keys(&mut back, &keys)?;
            let differing = image.iter().zip(&agreed).filter(|(a, b)| a != b).count();
            if differing == 0 {
                break image;
            }
            if start.elapsed() > CONVERGE_DEADLINE {
                return Err(format!(
                    "restarted node still differs on {differing} sampled keys"
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        catchup_ms = t.elapsed().as_secs_f64() * 1e3;
        let flags_kept =
            (0..CONNS).all(|p| value_of(&image, gen::flag_key(p as u64)) >= litmus.released[p]);
        out.check(
            "no acknowledged release or FAA lost across the SIGKILL",
            flags_kept && value_of(&image, gen::COUNTER) == litmus.faa_acked,
            format!(
                "flags ≥ {:?}, counter {}",
                litmus.released,
                value_of(&image, gen::COUNTER)
            ),
        );
        // SIGKILL leaves the page cache intact: this checks the replay
        // path, not the fsync barrier.
        out.notes.push((
            "restart".into(),
            "SIGKILL keeps the OS page cache; checks WAL replay, not fsync".into(),
        ));
    }
    let check_us = check_t.elapsed().as_secs_f64() * 1e6;

    // ---- metrics ---------------------------------------------------------------
    let before = scrape::sum(&a.scrapes);
    let after = scrape::sum(&b.scrapes);
    let d = layers::delta(&before, &after);
    let ops = d.get("proto_completed").max(1);
    let cpu_us = (b.cpu_us.0 - a.cpu_us.0, b.cpu_us.1 - a.cpu_us.1);
    // Traced runs split latencies by whether the op fell in a traced
    // second; the percentiles are over all of them.
    let sorted = |pick: &dyn Fn(&Sample) -> bool| {
        let mut v: Vec<u64> = samples
            .iter()
            .filter(|s| pick(s))
            .map(|s| s.lat_ns)
            .collect();
        v.sort_unstable();
        v
    };
    let overhead = stats::percentile(&sorted(&|s| s.traced), 0.5) as f64
        / (stats::percentile(&sorted(&|s| !s.traced), 0.5) as f64).max(1.0);
    let lat = sorted(&|_| true);
    // The bounded figures are those of the run's quiet seconds (see
    // `stats::quiet`): median latency of the ops due in each second, and
    // the daemons' CPU time over each second per op completed in it.
    let second_p50_us: Vec<f64> = (0..seconds as u32)
        .map(|w| stats::percentile(&sorted(&|s| s.second == w), 0.5) as f64 / 1e3)
        .collect();
    stamps.sort_unstable();
    let second_cpu_us_per_op: Vec<f64> = edges
        .windows(2)
        .filter_map(|w| {
            let ((t0, cpu0), (t1, cpu1)) = (w[0], w[1]);
            let ops = stamps.partition_point(|t| *t < t1) - stamps.partition_point(|t| *t < t0);
            (ops > 0).then_some((cpu1? - cpu0?) as f64 / 1e3 / ops as f64)
        })
        .collect();
    let window_ns = seconds * 1_000_000_000 / WINDOWS as u64;
    let rates = stats::window_rates(&stamps, window_ns, WINDOWS);
    let halves = stats::window_rates(&stamps, seconds * 500_000_000, 2);
    // The latency figures assume the generator kept its schedule: say so in
    // every result (a note, not a check — the driver's host is not ours).
    late.sort_unstable();
    let late_p99_us = stats::percentile(&late, 0.99) as f64 / 1e3;
    let verdict = if late_p99_us <= LATE_GUARD_US {
        "within"
    } else {
        "EXCEEDS"
    };
    out.notes.push((
        "gen_late_p99_us".into(),
        format!("{late_p99_us:.1} ({verdict} the {LATE_GUARD_US} us guard)"),
    ));
    // Every second's figure and the whole window's, beside the quiet
    // seconds' that the metrics report.
    let join = |v: &[f64]| {
        let v: Vec<String> = v.iter().map(|x| format!("{x:.1}")).collect();
        v.join(" ")
    };
    out.notes.extend([
        ("p50_us_per_second".into(), join(&second_p50_us)),
        (
            "p50_us_whole_window".into(),
            format!("{:.1}", stats::percentile(&lat, 0.5) as f64 / 1e3),
        ),
        (
            "cpu_us_per_op_per_second".into(),
            join(&second_cpu_us_per_op),
        ),
        (
            "cpu_us_per_op_whole_window".into(),
            format!("{:.1}", (cpu_us.0 + cpu_us.1) as f64 / ops as f64),
        ),
    ]);
    out.samples = vec![
        ("p50_us", lat.len() as u64),
        ("tput_kops", WINDOWS as u64),
        ("cpu_us_per_op", ops),
    ];
    if !trace {
        let rss_kb: u64 = cluster
            .pids()
            .iter()
            .filter_map(|p| procfs::vm_hwm_kb(*p))
            .sum();
        out.metrics = vec![
            ("setup_s", stats::median(&setups)),
            ("tput_kops", stats::median(&rates) / 1e3),
            ("cpu_us_per_op", stats::quiet(&second_cpu_us_per_op)),
            ("p50_us", stats::quiet(&second_p50_us)),
            ("rss_mb", rss_kb as f64 / 1024.0),
            ("avail_ratio", halves[1] / halves[0]),
        ];
        return Ok(());
    }

    let mut m = layers::count_metrics(&d, ops);
    let per_op = |n: u64| n as f64 / ops as f64;
    let (tail_pct, tail) = stats::tail(&lat);
    let frames = d.links("frames_out");
    m.extend([
        ("workloads.next_op_ns", next_op.mean_ns()),
        (
            "gen.late_p50_us",
            stats::percentile(&late, 0.5) as f64 / 1e3,
        ),
        (
            "gen.late_p99_us",
            stats::percentile(&late, 0.99) as f64 / 1e3,
        ),
        ("client.submit_ns", submit.mean_ns()),
        ("client.flush_ns", flush.mean_ns()),
        ("client.poll_ns", poll.mean_ns()),
        (
            "client.ops_per_flush",
            submitted_traced as f64 / flush.calls.max(1) as f64,
        ),
        ("client.duplicates", duplicates as f64),
        ("client.p90_us", stats::percentile(&lat, 0.9) as f64 / 1e3),
        ("client.p99_us", stats::percentile(&lat, 0.99) as f64 / 1e3),
        ("client.tail_us", tail as f64 / 1e3),
        ("client.tail_pct", tail_pct),
        ("net.frames_per_op", per_op(frames)),
        (
            "net.msgs_per_frame",
            d.get("proto_msgs_sent") as f64 / frames.max(1) as f64,
        ),
        (
            "net.write_syscalls_per_op",
            per_op(b.write_syscalls - a.write_syscalls),
        ),
        ("net.ctx_switches_per_op", per_op(b.switches - a.switches)),
        (
            "net.cpu_sys_share",
            cpu_us.1 as f64 / (cpu_us.0 + cpu_us.1).max(1) as f64,
        ),
        ("net.shed_frames", d.links("shed_full") as f64),
        ("net.dropped_out", d.links("dropped_out") as f64),
        ("net.decode_errors", decode_errors as f64),
        ("net.ring_frames_max", ring_max as f64),
        (
            "verify.check_us_per_kop",
            check_us / (out.attempted.max(1) as f64 / 1e3),
        ),
    ]);
    // Cumulative since each daemon started (preload and warm-up included),
    // in log₂ buckets: coarse by construction.
    for (name, class, q) in [
        ("core.read_p50_us", "read", "p50"),
        ("core.write_p50_us", "write", "p50"),
        ("core.release_p50_us", "release", "p50"),
        ("core.release_p99_us", "release", "p99"),
        ("core.acquire_p50_us", "acquire", "p50"),
        ("core.acquire_p99_us", "acquire", "p99"),
        ("core.rmw_p50_us", "rmw", "p50"),
        ("core.rmw_p99_us", "rmw", "p99"),
    ] {
        m.push((name, class_us(&end_scrapes, class, q)));
    }
    if kind.wal() {
        let fsyncs = d.get("wal_fsyncs");
        m.extend([
            ("wal.records_per_op", per_op(d.get("wal_records"))),
            ("wal.bytes_per_op", per_op(d.get("wal_appended_bytes"))),
            ("wal.fsyncs_per_kop", 1e3 * per_op(fsyncs)),
            (
                "wal.records_per_fsync",
                d.get("wal_records") as f64 / fsyncs.max(1) as f64,
            ),
            (
                "wal.commit_p50_us",
                end_scrapes
                    .iter()
                    .map(|s| s.get("wal_commit_latency_ns_p50"))
                    .max()
                    .unwrap_or(0) as f64
                    / 1e3,
            ),
            (
                "wal.commit_p99_us",
                end_scrapes
                    .iter()
                    .map(|s| s.get("wal_commit_latency_ns_p99"))
                    .max()
                    .unwrap_or(0) as f64
                    / 1e3,
            ),
            ("wal.lag_bytes_max", lag_max as f64),
            ("wal.replay_records", replayed),
            ("wal.restart_ms", restart_ms),
            ("ae.catchup_ms", catchup_ms),
        ]);
    }
    let halves_avail = layers::availability(
        &stats::window_rates(&stamps, 1_000_000_000, seconds as usize)
            .iter()
            .map(|r| *r as u64)
            .collect::<Vec<_>>(),
        &[(seconds as usize / 2, seconds as usize / 2)],
        2,
    );
    m.push(("avail.floor_ratio", halves_avail.floor));
    m.push(("avail.wake_ratio", halves_avail.wake_ratio));
    m.push(("avail.recover_ms", halves_avail.recover_buckets * 1e3));
    // Tracing overhead where a client would feel it: median latency of ops
    // submitted in traced seconds ÷ in plain seconds of the same run.
    m.push(("trace.overhead_ratio", overhead));
    let service: Vec<u64> = out
        .spans
        .iter()
        .filter(|s| s.name == "node.service")
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    m.push((
        "trace.node_service_us",
        service.iter().sum::<u64>() as f64 / 1e3 / service.len().max(1) as f64,
    ));

    let mut tracer = Tracer::new(epoch, 9);
    let (rmw, rel, write, acq, _) = mix.class_fractions();
    let scope = crate::probes::Scope {
        keys: KEYS,
        nodes: NODES,
        wire_mix: Some((rmw, rel, write, acq)),
        wal_dir: kind.wal().then(|| dir.join("probe-wal")),
    };
    let probes = crate::probes::run(&scope, &mut tracer);
    let measured = (cpu_us.0 + cpu_us.1) as f64 / ops as f64;
    m.extend(crate::probes::ledger(&probes, &m, NODES, measured));
    m.extend(probes);
    out.spans.extend(tracer.spans);
    m.push(("trace.spans", out.spans.len() as f64));
    out.metrics = m;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_measures_from_due_time_and_reports_lateness() {
        // 10 000 ops/s: one op every 100 µs.
        let mut p = Pacer::new(10_000, Arrivals::Fixed);
        let end = 1_000_000_000;
        let due: Vec<u64> = std::iter::from_fn(|| p.take_due(250_000, end)).collect();
        assert_eq!(
            due,
            vec![0, 100_000, 200_000],
            "everything due by now, nothing early"
        );
        assert_eq!(p.next_due(), 300_000);
        // The generator stalls until t = 1 ms: the backlog is handed out
        // with its original due times, so the stall shows as lateness and
        // is counted in each op's latency.
        let now = 1_000_000;
        let backlog: Vec<u64> = std::iter::from_fn(|| p.take_due(now, end)).collect();
        assert_eq!(backlog.len(), 8);
        assert_eq!(backlog[0], 300_000);
        let (lateness, latency) = (now - backlog[0], (now + 50_000) - backlog[0]);
        assert_eq!((lateness, latency), (700_000, 750_000));
        // Nothing is scheduled at or past the end of the run.
        let mut p = Pacer::new(10_000, Arrivals::Fixed);
        let in_run: Vec<u64> = std::iter::from_fn(|| p.take_due(u64::MAX, 250_000)).collect();
        assert_eq!(in_run, vec![0, 100_000, 200_000]);
    }

    #[test]
    fn poisson_arrivals_keep_the_mean_rate_and_repeat_per_seed() {
        let schedule = |seed: u64| -> Vec<u64> {
            let mut p = Pacer::new(10_000, Arrivals::Poisson(SplitMix64::new(seed)));
            std::iter::from_fn(|| p.take_due(u64::MAX, 1_000_000_000)).collect()
        };
        let a = schedule(7);
        // 10 000 expected in one second; the count is Poisson (sd 100).
        assert!((9_500..=10_500).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]) && a[0] == 0);
        // Exponential gaps: about 1 − e⁻¹ = 63 % are below the mean.
        let short = a.windows(2).filter(|w| w[1] - w[0] < 100_000).count();
        assert!((0.60..0.66).contains(&(short as f64 / a.len() as f64)));
        assert_eq!(a, schedule(7), "the same seed gives the same schedule");
        assert_ne!(a, schedule(8));
    }

    #[test]
    fn sample_holds_the_check_keys_and_spans_the_key_space() {
        let keys = sample_keys();
        assert_eq!(keys.len() as u64, SAMPLE_KEYS - 8 + 1 + 2 * CONNS as u64);
        assert!(keys.contains(&gen::COUNTER) && keys.contains(&gen::flag_key(1)));
        assert!(keys.iter().filter(|k| k.0 < KEYS as u64).count() as u64 == SAMPLE_KEYS - 8);
        let distinct: std::collections::BTreeSet<u64> = keys.iter().map(|k| k.0).collect();
        assert_eq!(distinct.len(), keys.len());
    }
}
